package jt

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/td"
	"repro/internal/vset"
)

// mustSolver builds an unbounded solver over a background context, which
// cannot fail.
func mustSolver(g *graph.Graph, c cost.Cost) *core.Solver {
	s, err := core.New(context.Background(), g, c, core.Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// bruteJoint computes the exact joint over all variables by enumeration.
func bruteJoint(m *Model) (z float64, marginals [][]float64) {
	n := len(m.Card)
	marginals = make([][]float64, n)
	for v := range marginals {
		marginals[v] = make([]float64, m.Card[v])
	}
	assign := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			p := 1.0
			for _, f := range m.Factors {
				sub := make([]int, len(f.Vars))
				for i, fv := range f.Vars {
					sub[i] = assign[fv]
				}
				p *= f.At(sub)
			}
			z += p
			for u := 0; u < n; u++ {
				marginals[u][assign[u]] += p
			}
			return
		}
		for x := 0; x < m.Card[v]; x++ {
			assign[v] = x
			rec(v + 1)
		}
	}
	rec(0)
	for v := range marginals {
		for x := range marginals[v] {
			if z > 0 {
				marginals[v][x] /= z
			}
		}
	}
	return z, marginals
}

// moralGraph builds the moral graph of the model: factor scopes saturated.
func moralGraph(m *Model) *graph.Graph {
	g := graph.New(len(m.Card))
	for _, f := range m.Factors {
		for i := 0; i < len(f.Vars); i++ {
			for j := i + 1; j < len(f.Vars); j++ {
				if !g.HasEdge(f.Vars[i], f.Vars[j]) {
					g.AddEdge(f.Vars[i], f.Vars[j])
				}
			}
		}
	}
	return g
}

func TestChainInference(t *testing.T) {
	// A 3-variable chain A→B→C with hand-computable marginals.
	m := NewModel([]int{2, 2, 2})
	// P(A): [0.6, 0.4]
	mustAdd(t, m, []int{0}, []float64{0.6, 0.4})
	// P(B|A): rows A, cols B.
	mustAdd(t, m, []int{0, 1}, []float64{0.9, 0.1, 0.2, 0.8})
	// P(C|B).
	mustAdd(t, m, []int{1, 2}, []float64{0.7, 0.3, 0.5, 0.5})

	g := moralGraph(m)
	r, err := mustSolver(g, cost.TotalStateSpace{Domain: m.Card}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(m, r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Z()-1) > 1e-9 {
		t.Fatalf("Bayes net Z = %v, want 1", tree.Z())
	}
	wantZ, wantMarg := bruteJoint(m)
	if math.Abs(tree.Z()-wantZ) > 1e-9 {
		t.Fatalf("Z = %v, brute %v", tree.Z(), wantZ)
	}
	for v := 0; v < 3; v++ {
		got, err := tree.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		for x := range got {
			if math.Abs(got[x]-wantMarg[v][x]) > 1e-9 {
				t.Fatalf("marginal[%d] = %v, brute %v", v, got, wantMarg[v])
			}
		}
	}
}

func TestRandomModelsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		card := make([]int, n)
		for i := range card {
			card[i] = 2 + rng.Intn(2)
		}
		m := NewModel(card)
		factors := 1 + rng.Intn(2*n)
		for i := 0; i < factors; i++ {
			k := 1 + rng.Intn(3)
			if k > n {
				k = n
			}
			perm := rng.Perm(n)[:k]
			size := 1
			for _, v := range perm {
				size *= card[v]
			}
			vals := make([]float64, size)
			for j := range vals {
				vals[j] = 0.05 + rng.Float64()
			}
			mustAdd(t, m, perm, vals)
		}
		g := moralGraph(m)
		r, err := mustSolver(g, cost.TotalStateSpace{Domain: card}).MinTriang(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := Build(m, r.Tree)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantZ, wantMarg := bruteJoint(m)
		if relDiff(tree.Z(), wantZ) > 1e-9 {
			t.Fatalf("trial %d: Z=%v brute=%v", trial, tree.Z(), wantZ)
		}
		for v := 0; v < n; v++ {
			got, err := tree.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			for x := range got {
				if math.Abs(got[x]-wantMarg[v][x]) > 1e-9 {
					t.Fatalf("trial %d: marginal[%d]=%v brute=%v", trial, v, got, wantMarg[v])
				}
			}
		}
		if tree.TotalTableSize() <= 0 {
			t.Fatalf("table size broken")
		}
	}
}

func TestInferenceOverEveryRankedTree(t *testing.T) {
	// Every minimal triangulation's clique tree must give the same
	// answers — inference correctness is decomposition-independent.
	rng := rand.New(rand.NewSource(5))
	m := NewModel([]int{2, 2, 2, 2, 2})
	scopes := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, s := range scopes {
		vals := make([]float64, 4)
		for j := range vals {
			vals[j] = 0.1 + rng.Float64()
		}
		mustAdd(t, m, s, vals)
	}
	g := moralGraph(m)
	wantZ, _ := bruteJoint(m)
	s := mustSolver(g, cost.TotalStateSpace{Domain: m.Card})
	e := s.EnumerateContext(context.Background())
	count := 0
	for {
		r, ok := e.Next()
		if !ok {
			break
		}
		count++
		tree, err := Build(m, r.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(tree.Z(), wantZ) > 1e-9 {
			t.Fatalf("tree %d: Z=%v want %v", count, tree.Z(), wantZ)
		}
	}
	if count < 2 {
		t.Fatalf("C5 moral graph should have several triangulations, got %d", count)
	}
}

func TestBuildErrors(t *testing.T) {
	m := NewModel([]int{2, 2})
	mustAdd(t, m, []int{0, 1}, []float64{1, 1, 1, 1})
	// Empty decomposition.
	if _, err := Build(m, td.New()); err != ErrEmptyTree {
		t.Fatalf("want ErrEmptyTree, got %v", err)
	}
	// Decomposition that does not cover the factor.
	d := td.New()
	d.AddNode(vset.Of(2, 0))
	d.AddNode(vset.Of(2, 1))
	d.AddEdge(0, 1)
	if _, err := Build(m, d); err != ErrFactorNotCovered {
		t.Fatalf("want ErrFactorNotCovered, got %v", err)
	}
	// Wrong value count.
	if _, err := m.AddFactor([]int{0}, []float64{1, 2, 3}); err == nil {
		t.Fatalf("bad factor size accepted")
	}
}

func TestDisconnectedModel(t *testing.T) {
	// Two independent pairs: Z must multiply across components.
	m := NewModel([]int{2, 2, 2, 2})
	mustAdd(t, m, []int{0, 1}, []float64{1, 2, 3, 4}) // sums to 10
	mustAdd(t, m, []int{2, 3}, []float64{2, 2, 2, 2}) // sums to 8
	g := moralGraph(m)
	r, err := mustSolver(g, cost.Width{}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(m, r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Z()-80) > 1e-9 {
		t.Fatalf("disconnected Z = %v, want 80", tree.Z())
	}
}

func TestPipelineWithGeneratedNetwork(t *testing.T) {
	// End-to-end: moralized DAG → ranked junction trees → the cheapest
	// tree's actual table size equals the cost the solver reported.
	rng := rand.New(rand.NewSource(8))
	g := gen.MoralizedDAG(rng, 9, 2)
	card := make([]int, 9)
	for i := range card {
		card[i] = 2
	}
	m := NewModel(card)
	// One factor per maximal...-ish: use each edge as a pairwise factor.
	for _, e := range g.Edges() {
		mustAdd(t, m, []int{e[0], e[1]}, []float64{1, 2, 3, 4})
	}
	for v := 0; v < 9; v++ {
		mustAdd(t, m, []int{v}, []float64{1, 1})
	}
	r, err := mustSolver(g, cost.TotalStateSpace{Domain: card}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(m, r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if float64(tree.TotalTableSize()) != r.Cost {
		t.Fatalf("table size %d != solver cost %v", tree.TotalTableSize(), r.Cost)
	}
	wantZ, _ := bruteJoint(m)
	if relDiff(tree.Z(), wantZ) > 1e-9 {
		t.Fatalf("Z=%v want %v", tree.Z(), wantZ)
	}
}

func mustAdd(t *testing.T, m *Model, vars []int, vals []float64) {
	t.Helper()
	if _, err := m.AddFactor(vars, vals); err != nil {
		t.Fatal(err)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestFactorSetAt fills a factor that Model.AddFactor created through
// Set, reads every entry back with At and in Values' row-major order
// (first variable slowest), and checks that the model it belongs to has
// the partition function of a model built from the same values slice.
func TestFactorSetAt(t *testing.T) {
	card := []int{2, 3, 2}
	vars := []int{2, 0, 1} // factor cardinalities 2, 2, 3
	value := func(a []int) float64 { return float64(1 + a[0] + 2*a[1] + 5*a[2]) }

	set := NewModel(card)
	f, err := set.AddFactor(vars, make([]float64, 12))
	if err != nil {
		t.Fatal(err)
	}
	var rowMajor [][]int
	for a0 := 0; a0 < 2; a0++ {
		for a1 := 0; a1 < 2; a1++ {
			for a2 := 0; a2 < 3; a2++ {
				rowMajor = append(rowMajor, []int{a0, a1, a2})
			}
		}
	}
	for _, a := range rowMajor {
		f.Set(a, value(a))
	}
	want := make([]float64, len(rowMajor))
	for i, a := range rowMajor {
		want[i] = value(a)
		if got := f.At(a); got != want[i] {
			t.Fatalf("At(%v) = %v, want %v", a, got, want[i])
		}
		if f.Values[i] != want[i] {
			t.Fatalf("Values = %v, want row-major %v", f.Values, want)
		}
	}

	fromSlice := NewModel(card)
	mustAdd(t, fromSlice, vars, want)
	for _, m := range []*Model{set, fromSlice} {
		mustAdd(t, m, []int{1}, []float64{0.5, 1, 2})
	}
	r, err := mustSolver(moralGraph(set), cost.TotalStateSpace{Domain: card}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	var z [2]float64
	for i, m := range []*Model{set, fromSlice} {
		tree, err := Build(m, r.Tree)
		if err != nil {
			t.Fatal(err)
		}
		z[i] = tree.Z()
	}
	if wantZ, _ := bruteJoint(fromSlice); z[0] != z[1] || relDiff(z[0], wantZ) > 1e-9 {
		t.Fatalf("Z filled through Set = %v, from the values slice = %v, brute force %v", z[0], z[1], wantZ)
	}
}
