package chordal

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/triang"
	"repro/internal/vset"
)

func TestIsChordal(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.New(0), true},
		{"single", graph.New(1), true},
		{"path", gen.Path(6), true},
		{"triangle", gen.Complete(3), true},
		{"complete", gen.Complete(6), true},
		{"C4", gen.Cycle(4), false},
		{"C5", gen.Cycle(5), false},
		{"paper", gen.PaperExample(), false},
		{"grid", gen.Grid(3, 3), false},
	}
	for _, tc := range tests {
		if got := IsChordal(tc.g); got != tc.want {
			t.Errorf("%s: IsChordal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChordalAfterSaturation(t *testing.T) {
	// Saturating S1 = {w1,w2,w3} yields minimal triangulation H1 of the
	// paper example; saturating S2 = {u,v} yields H2.
	g := gen.PaperExample()
	h1 := g.Saturate(vset.Of(6, 3, 4, 5))
	h2 := g.Saturate(vset.Of(6, 0, 1))
	if !IsChordal(h1) || !IsChordal(h2) {
		t.Fatalf("paper triangulations not chordal")
	}
	if !IsTriangulationOf(h1, g) || !IsTriangulationOf(h2, g) {
		t.Fatalf("IsTriangulationOf rejected valid triangulations")
	}
	if IsTriangulationOf(g, g) {
		t.Fatalf("non-chordal graph accepted as triangulation of itself")
	}
	if len(FillEdges(g, h1)) != 3 || len(FillEdges(g, h2)) != 1 {
		t.Fatalf("fill sizes: %d, %d", len(FillEdges(g, h1)), len(FillEdges(g, h2)))
	}
}

func TestMaximalCliquesPaperH1(t *testing.T) {
	g := gen.PaperExample()
	h1 := g.Saturate(vset.Of(6, 3, 4, 5))
	cliques, err := MaximalCliques(h1)
	if err != nil {
		t.Fatal(err)
	}
	want := []vset.Set{
		vset.Of(6, 1, 2),       // {v, v'}
		vset.Of(6, 0, 3, 4, 5), // {u, w1, w2, w3}
		vset.Of(6, 1, 3, 4, 5), // {v, w1, w2, w3}
	}
	if len(cliques) != len(want) {
		t.Fatalf("got %d cliques: %v", len(cliques), cliques)
	}
	got := map[string]bool{}
	for _, c := range cliques {
		got[c.Key()] = true
	}
	for _, w := range want {
		if !got[w.Key()] {
			t.Errorf("missing clique %v", w)
		}
	}
}

func TestMaximalCliquesRejectsNonChordal(t *testing.T) {
	if _, err := MaximalCliques(gen.Cycle(4)); err != ErrNotChordal {
		t.Fatalf("want ErrNotChordal, got %v", err)
	}
}

func TestCliqueTreePaperH2(t *testing.T) {
	g := gen.PaperExample()
	h2 := g.Saturate(vset.Of(6, 0, 1)) // T2's triangulation
	st, err := Analyze(h2)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.CliqueTree()
	if err := ct.Validate(h2); err != nil {
		t.Fatalf("clique tree invalid: %v", err)
	}
	if !ct.IsCliqueTreeOf(h2, st.Cliques) {
		t.Fatalf("not a clique tree")
	}
	// H2's maximal cliques: {u,v,w1}, {u,v,w2}, {u,v,w3}, {v,v'}.
	if len(ct.Bags) != 4 {
		t.Fatalf("bag count = %d", len(ct.Bags))
	}
}

func TestMinimalSeparatorsOfChordal(t *testing.T) {
	g := gen.PaperExample()
	h2 := g.Saturate(vset.Of(6, 0, 1))
	st, err := Analyze(h2)
	if err != nil {
		t.Fatal(err)
	}
	seps := st.Seps
	// MinSep(H2) = {{u,v}, {v}} per Parra–Scheffler (M2 = {S2, S3}).
	want := map[string]bool{vset.Of(6, 0, 1).Key(): true, vset.Of(6, 1).Key(): true}
	if len(seps) != 2 {
		t.Fatalf("got %d separators: %v", len(seps), seps)
	}
	for _, s := range seps {
		if !want[s.Key()] {
			t.Errorf("unexpected separator %v", s)
		}
	}
}

// TestCliqueTreeAdhesionsPaperT2 reads the clique tree of H2 edge by
// edge: like T2 of Figure 1(c), its three edges carry {u,v}, {u,v} and
// {v}, and its distinct adhesions are the separators the search reports.
func TestCliqueTreeAdhesionsPaperT2(t *testing.T) {
	g := gen.PaperExample()
	h2 := g.Saturate(vset.Of(6, 0, 1))
	st, err := Analyze(h2)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.CliqueTree()
	count := map[string]int{}
	edges := 0
	for x, nb := range ct.Adj {
		for _, y := range nb {
			if x < y {
				count[ct.Bags[x].Intersect(ct.Bags[y]).Key()]++
				edges++
			}
		}
	}
	if edges != 3 || count[vset.Of(6, 0, 1).Key()] != 2 || count[vset.Of(6, 1).Key()] != 1 {
		t.Fatalf("edge labels %v over %d edges, want {u,v} twice and {v} once", count, edges)
	}
	if adh := referenceSeps(ct); !sameSets(adh, st.Seps) {
		t.Errorf("clique tree adhesions %v, separators %v", adh, st.Seps)
	}
}

func TestCliqueTreeDisconnected(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	// vertex 4 isolated
	st, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.CliqueTree()
	if err := ct.Validate(g); err != nil {
		t.Fatalf("disconnected clique tree invalid: %v", err)
	}
	if len(ct.Bags) != 3 {
		t.Fatalf("bags = %d, want 3", len(ct.Bags))
	}
}

func TestRandomChordalInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// k-trees are chordal by construction.
		n := 3 + rng.Intn(15)
		k := 1 + rng.Intn(3)
		g := gen.KTree(rng, n, k, 0)
		if !IsChordal(g) {
			t.Fatalf("k-tree not detected chordal (n=%d k=%d)", n, k)
		}
		cliques, err := MaximalCliques(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(cliques) >= g.NumVertices()+1 {
			t.Fatalf("chordal graph has %d maximal cliques, ≥ n+1", len(cliques))
		}
		for _, c := range cliques {
			if !g.IsClique(c) {
				t.Fatalf("reported clique is not a clique: %v", c)
			}
		}
		st, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		ct := st.CliqueTree()
		if err := ct.Validate(g); err != nil {
			t.Fatalf("clique tree invalid: %v", err)
		}
		if !ct.IsCliqueTreeOf(g, cliques) {
			t.Fatalf("clique tree bags are not the maximal cliques")
		}
	}
}

// TestAnalyzeCoversActiveVertices checks that the search visits the
// active vertices and only them: on triangulations of graphs with some
// vertices deactivated, the cliques cover exactly the active set.
func TestAnalyzeCoversActiveVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		g := gen.GNP(rng, n, 0.3)
		keep := vset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) != 0 {
				keep.AddInPlace(v)
			}
		}
		h := triang.Minimal(g.InducedSubgraph(keep))
		st, err := Analyze(h)
		if err != nil {
			t.Fatal(err)
		}
		covered := vset.New(n)
		for _, c := range st.Cliques {
			covered.UnionInPlace(c)
		}
		if !covered.Equal(keep) {
			t.Fatalf("trial %d: cliques cover %v, active %v", trial, covered, keep)
		}
	}
}

func TestMinimalSeparatorsAreSeparators(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		g := gen.KTree(rng, 4+rng.Intn(10), 2, 0)
		st, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		seps := st.Seps
		for _, s := range seps {
			comps := g.ComponentsAvoiding(s)
			full := 0
			for _, c := range comps {
				if g.NeighborsOfSet(c).Equal(s) {
					full++
				}
			}
			if full < 2 {
				t.Fatalf("adhesion %v is not a minimal separator", s)
			}
		}
		// Separators are sorted and unique.
		for i := 1; i < len(seps); i++ {
			if seps[i-1].Compare(seps[i]) >= 0 {
				t.Fatalf("separators not sorted/unique")
			}
		}
		sort.Slice(seps, func(i, j int) bool { return seps[i].Compare(seps[j]) < 0 })
	}
}
