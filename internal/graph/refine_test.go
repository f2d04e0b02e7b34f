package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRefineMatchesReference compares the label-array refinement with
// the slice-and-map one it replaced (refine_ref_test.go): every search
// must find the same permutation, the same generators and the same
// exactness — at the default budget and at a budget of three nodes, which
// stops most searches early — and refining random partitions must give
// the same cells in the same order. The corpus holds the pinned graphs,
// the named graphs, TreePlusChords(40, 3), MoralizedDAG(30) and random
// G(n, p), each under fresh relabelings.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type named struct {
		name string
		g    *graph.Graph
	}
	corpus := []named{
		{"C9", gen.Cycle(9)},
		{"grid3x4", gen.Grid(3, 4)},
		{"C10(1,3)", gen.CirculantGraph(10, []int{1, 3})},
		{"TreePlusChords(40,3)", gen.TreePlusChords(rand.New(rand.NewSource(1)), 40, 3)},
		{"paper", gen.PaperExample()},
		{"MoralizedDAG(30)", gen.MoralizedDAG(rng, 30, 3)},
	}
	for _, name := range gen.NamedGraphs() {
		corpus = append(corpus, named{name, mustNamed(t, name)})
	}
	for i := 0; i < 24; i++ {
		n := 4 + rng.Intn(27)
		corpus = append(corpus, named{fmt.Sprintf("gnp%d-%d", n, i), gen.GNP(rng, n, 0.1+0.5*rng.Float64())})
	}
	for _, tc := range corpus {
		for r, g := range []*graph.Graph{tc.g, gen.Relabel(rng, tc.g), gen.Relabel(rng, tc.g)} {
			for _, budget := range []int{0, 3} {
				perm, gens, exact := graph.CanonSearchOutcome(g, budget, false)
				wperm, wgens, wexact := graph.CanonSearchOutcome(g, budget, true)
				if fmt.Sprint(perm) != fmt.Sprint(wperm) || fmt.Sprint(gens) != fmt.Sprint(wgens) || exact != wexact {
					t.Fatalf("%s relabeling %d budget %d: search differs from the reference\n perm %v gens %v exact %v\nwant %v gens %v exact %v",
						tc.name, r, budget, perm, gens, exact, wperm, wgens, wexact)
				}
			}
			k := g.NumVertices()
			for trial := 0; trial < 4; trial++ {
				cells := randomCells(rng, k)
				got, want := graph.RefineBoth(g, cells)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s relabeling %d: refine(%v) = %v, reference %v", tc.name, r, cells, got, want)
				}
			}
		}
	}
}

// randomCells splits a random ordering of 0..k-1 into up to four
// non-empty cells.
func randomCells(rng *rand.Rand, k int) [][]int {
	order := rng.Perm(k)
	var cells [][]int
	for len(order) > 0 {
		size := 1 + rng.Intn(len(order))
		if len(cells) == 3 {
			size = len(order)
		}
		cells = append(cells, order[:size])
		order = order[size:]
	}
	return cells
}

// BenchmarkCanonicalForm measures one canonical labeling, allocations
// included, on a tree-like template with 15 search nodes and on a cycle.
func BenchmarkCanonicalForm(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"TreePlusChords(40,3)", gen.TreePlusChords(rand.New(rand.NewSource(1)), 40, 3)},
		{"C9", gen.Cycle(9)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tc.g.CanonicalForm()
			}
		})
	}
}
