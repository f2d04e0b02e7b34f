package cost

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// paperBagsH2 are the maximal cliques of triangulation H2 of the paper
// example: {u,v,w1}, {u,v,w2}, {u,v,w3}, {v,v'}.
func paperBagsH2() []vset.Set {
	return []vset.Set{
		vset.Of(6, 0, 1, 3),
		vset.Of(6, 0, 1, 4),
		vset.Of(6, 0, 1, 5),
		vset.Of(6, 1, 2),
	}
}

func TestWidth(t *testing.T) {
	g := gen.PaperExample()
	if got := (Width{}).Eval(g, paperBagsH2()); got != 2 {
		t.Fatalf("width = %v, want 2", got)
	}
	if got := (Width{}).Eval(g, nil); got != -1 {
		t.Fatalf("empty width = %v, want -1", got)
	}
	if (Width{}).Name() != "width" {
		t.Fatalf("name")
	}
}

func TestFillIn(t *testing.T) {
	g := gen.PaperExample()
	// H2 adds exactly the edge {u,v}, shared by three bags — counted once.
	if got := (FillIn{}).Eval(g, paperBagsH2()); got != 1 {
		t.Fatalf("fill = %v, want 1", got)
	}
	// H1's bags: {u,w1,w2,w3}, {v,w1,w2,w3}, {v,v'} — adds 3 w-edges.
	h1 := []vset.Set{vset.Of(6, 0, 3, 4, 5), vset.Of(6, 1, 3, 4, 5), vset.Of(6, 1, 2)}
	if got := (FillIn{}).Eval(g, h1); got != 3 {
		t.Fatalf("H1 fill = %v, want 3", got)
	}
}

func TestFillBagSumExcludesSeparator(t *testing.T) {
	g := gen.PaperExample()
	omega := vset.Of(6, 0, 1, 3)
	sep := vset.Of(6, 0, 1)
	// Pair {u,v} is inside the separator: charged to the parent.
	if got := (FillIn{}).BagSum(g, omega, sep); got != 0 {
		t.Fatalf("BagSum with sep = %v, want 0", got)
	}
	if got := (FillIn{}).BagSum(g, omega, vset.New(6)); got != 1 {
		t.Fatalf("BagSum without sep = %v, want 1", got)
	}
}

func TestWeightedWidth(t *testing.T) {
	c := WeightedWidth{BagWeight: func(_ *graph.Graph, b vset.Set) float64 {
		return float64(2 * b.Len())
	}}
	g := gen.PaperExample()
	if got := c.Eval(g, paperBagsH2()); got != 6 {
		t.Fatalf("weighted width = %v, want 6", got)
	}
	if c.Name() != "weighted-width" {
		t.Fatalf("default name")
	}
	c.CostName = "domains"
	if c.Name() != "domains" {
		t.Fatalf("custom name")
	}
}

func TestTotalStateSpace(t *testing.T) {
	g := gen.PaperExample()
	// Default binary domains: 8+8+8+4 = 28.
	if got := (TotalStateSpace{}).Eval(g, paperBagsH2()); got != 28 {
		t.Fatalf("state space = %v, want 28", got)
	}
	c := TotalStateSpace{Domain: []int{3, 1, 1, 2, 2, 2}}
	// Bags: 3·1·2 ×3 + 1·1 = 6+6+6+1 = 19.
	if got := c.Eval(g, paperBagsH2()); got != 19 {
		t.Fatalf("state space with domains = %v, want 19", got)
	}
	// Duplicate bags counted once (bag-equivalence invariance).
	dup := append(paperBagsH2(), paperBagsH2()...)
	if got := (TotalStateSpace{}).Eval(g, dup); got != 28 {
		t.Fatalf("duplicate bags double-counted: %v", got)
	}
}

func TestLexWidthFill(t *testing.T) {
	g := gen.PaperExample()
	c := LexWidthFill{}
	// Multiplier n(n-1)/2+1 = 16.
	if got := c.Eval(g, paperBagsH2()); got != 16*2+1 {
		t.Fatalf("lex = %v, want 33", got)
	}
}

func TestCombinableConsistency(t *testing.T) {
	// Value(max of BagMax, Σ BagSum with per-block separator accounting)
	// must equal the direct Eval over full decompositions. We exercise it
	// through single-bag decompositions where they trivially coincide, and
	// a two-bag split.
	g := gen.PaperExample()
	for _, c := range []Combinable{Width{}, FillIn{}, LexWidthFill{}, TotalStateSpace{}} {
		bag := vset.Of(6, 0, 1, 3)
		direct := c.Eval(g, []vset.Set{bag})
		combined := c.Value(g, c.BagMax(g, bag), c.BagSum(g, bag, vset.New(6)))
		if direct != combined {
			t.Fatalf("%s: single-bag mismatch %v vs %v", c.Name(), direct, combined)
		}
	}
}

func TestConstraintsSatisfied(t *testing.T) {
	g := gen.PaperExample()
	h2 := g.Saturate(vset.Of(6, 0, 1))
	s1 := vset.Of(6, 3, 4, 5)
	s2 := vset.Of(6, 0, 1)

	var nilCons *Constraints
	if !nilCons.IsEmpty() || !nilCons.Satisfied(h2) {
		t.Fatalf("nil constraints should be trivially satisfied")
	}
	cons := &Constraints{Include: []vset.Set{s2}, Exclude: []vset.Set{s1}}
	if !cons.Satisfied(h2) {
		t.Fatalf("H2 should satisfy [I={S2}, X={S1}]")
	}
	bad := &Constraints{Include: []vset.Set{s1}}
	if bad.Satisfied(h2) {
		t.Fatalf("H2 does not saturate S1")
	}
	bad2 := &Constraints{Exclude: []vset.Set{s2}}
	if bad2.Satisfied(h2) {
		t.Fatalf("H2 saturates S2, exclusion must fail")
	}
}

func TestConstraintsWithHelpers(t *testing.T) {
	s1 := vset.Of(6, 3, 4, 5)
	s2 := vset.Of(6, 0, 1)
	var c *Constraints
	c2 := c.WithInclude(s1).WithExclude(s2)
	if len(c2.Include) != 1 || len(c2.Exclude) != 1 {
		t.Fatalf("builders broken: %+v", c2)
	}
	// Original untouched (nil), clone independence.
	c3 := c2.Clone()
	c3.Include = append(c3.Include, s2)
	if len(c2.Include) != 1 {
		t.Fatalf("clone shares backing arrays in a harmful way")
	}
}

func TestInfinityPropagation(t *testing.T) {
	if !math.IsInf(math.Inf(1), 1) {
		t.Fatalf("sanity")
	}
	// WeightedWidth on empty bag list is -Inf (identity of max).
	c := WeightedWidth{BagWeight: func(_ *graph.Graph, b vset.Set) float64 { return 1 }}
	if got := c.Eval(gen.Path(2), nil); !math.IsInf(got, -1) {
		t.Fatalf("empty max = %v", got)
	}
}
