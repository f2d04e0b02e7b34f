package bruteforce

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

func TestAllMinimalSeparatorsPaper(t *testing.T) {
	seps := AllMinimalSeparators(gen.PaperExample())
	if len(seps) != 3 {
		t.Fatalf("paper example: %d separators, want 3", len(seps))
	}
}

func TestAllMinimalSeparatorsFamilies(t *testing.T) {
	if got := AllMinimalSeparators(gen.Complete(4)); len(got) != 0 {
		t.Fatalf("K4: %v", got)
	}
	if got := AllMinimalSeparators(gen.Path(4)); len(got) != 2 {
		t.Fatalf("P4: %v", got)
	}
	// C5: every non-adjacent pair, 5 of them.
	if got := AllMinimalSeparators(gen.Cycle(5)); len(got) != 5 {
		t.Fatalf("C5: %d", len(got))
	}
}

func TestEliminationFill(t *testing.T) {
	// Eliminating the middle of a path creates a fill edge.
	g := gen.Path(3)
	h := EliminationFill(g, []int{1, 0, 2})
	if !h.HasEdge(0, 2) {
		t.Fatalf("expected fill edge 0-2")
	}
	// Eliminating leaves first adds nothing.
	h = EliminationFill(g, []int{0, 2, 1})
	if h.NumEdges() != 2 {
		t.Fatalf("leaf-first elimination added fill")
	}
}

func TestAllMinimalTriangulationsCycle(t *testing.T) {
	// Cn has Catalan(n-2) minimal triangulations.
	catalan := map[int]int{4: 2, 5: 5, 6: 14}
	for n, want := range catalan {
		got := AllMinimalTriangulations(gen.Cycle(n))
		if len(got) != want {
			t.Fatalf("C%d: %d minimal triangulations, want %d", n, len(got), want)
		}
	}
}

func TestAllMinimalTriangulationsChordal(t *testing.T) {
	got := AllMinimalTriangulations(gen.Path(5))
	if len(got) != 1 || got[0].EdgeSetKey() != gen.Path(5).EdgeSetKey() {
		t.Fatalf("chordal graph should be its own unique minimal triangulation")
	}
}

func TestAllPMCsPaper(t *testing.T) {
	if got := AllPMCs(gen.PaperExample()); len(got) != 6 {
		t.Fatalf("paper example: %d PMCs, want 6", len(got))
	}
}

func TestMaximalCliquesFamilies(t *testing.T) {
	if got := MaximalCliques(gen.Cycle(5)); len(got) != 5 {
		t.Fatalf("C5: %d maximal cliques, want its 5 edges", len(got))
	}
	if got := MaximalCliques(gen.Complete(4)); len(got) != 1 || got[0].Len() != 4 {
		t.Fatalf("K4: maximal cliques %v", got)
	}
	g := graph.New(3) // edgeless: every vertex alone
	if got := MaximalCliques(g); len(got) != 3 {
		t.Fatalf("edgeless: maximal cliques %v", got)
	}
	h1 := gen.PaperExample().Saturate(vset.Of(6, 3, 4, 5))
	want := []vset.Set{vset.Of(6, 1, 2), vset.Of(6, 0, 3, 4, 5), vset.Of(6, 1, 3, 4, 5)}
	got := MaximalCliques(h1)
	if len(got) != len(want) {
		t.Fatalf("paper H1: maximal cliques %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("paper H1: maximal cliques %v, want %v", got, want)
		}
	}
}

func TestIsMinimalTriangulation(t *testing.T) {
	g := gen.PaperExample()
	h2 := g.Saturate(vset.Of(6, 0, 1))
	if !IsMinimalTriangulation(h2, g) {
		t.Fatalf("H2 rejected")
	}
	// Saturating everything is a triangulation but not minimal.
	full := gen.Complete(6)
	if IsMinimalTriangulation(full, g) {
		t.Fatalf("K6 accepted as minimal")
	}
	// Non-chordal graphs are not triangulations at all.
	if IsMinimalTriangulation(g, g) {
		t.Fatalf("non-chordal accepted")
	}
}

func TestIsMinimalSeparatorDirect(t *testing.T) {
	g := gen.PaperExample()
	if !IsMinimalSeparator(g, vset.Of(6, 1)) {
		t.Fatalf("S3 rejected")
	}
	if IsMinimalSeparator(g, vset.Of(6, 1, 3)) {
		t.Fatalf("{v,w1} accepted (not minimal: contains S3-like split?)")
	}
	if IsMinimalSeparator(g, vset.New(6)) {
		t.Fatalf("empty separator of a connected graph accepted")
	}
}

func TestPermuteCoversAll(t *testing.T) {
	seen := map[[3]int]bool{}
	permute([]int{0, 1, 2}, func(p []int) {
		seen[[3]int{p[0], p[1], p[2]}] = true
	})
	if len(seen) != 6 {
		t.Fatalf("permute visited %d of 6 permutations", len(seen))
	}
	count := 0
	permute(nil, func([]int) { count++ })
	if count != 1 {
		t.Fatalf("empty permutation count = %d", count)
	}
}

func TestDisconnectedOracle(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	seps := AllMinimalSeparators(g)
	hasEmpty := false
	for _, s := range seps {
		if s.IsEmpty() {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		t.Fatalf("disconnected graph: empty separator missing")
	}
	if got := AllMinimalTriangulations(g); len(got) != 1 {
		t.Fatalf("chordal disconnected graph: %d triangulations", len(got))
	}
}
