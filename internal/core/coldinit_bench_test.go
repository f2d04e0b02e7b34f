package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// coldInitCorpus returns graphs shaped like the ranked classes of a
// cold-solve request mix: connected G(n, p) with n 14–18, 4×4 CSP grids,
// clique chains (which decompose into atoms, so New builds per-atom
// sub-solvers in parallel) and sparse trees plus chords.
func coldInitCorpus() []*graph.Graph {
	rng := rand.New(rand.NewSource(61))
	var out []*graph.Graph
	for i := 0; i < 5; i++ {
		out = append(out, gen.ConnectedGNP(rng, 14+i, 0.2+0.06*float64(i)))
	}
	out = append(out,
		gen.CSPGrid(rng, 4, 4, 2),
		gen.CSPGrid(rng, 4, 4, 4),
		gen.CliqueChain(rng, 4, 8, 2, 0.5),
		gen.CliqueChain(rng, 5, 9, 2, 0.5),
		gen.TreePlusChords(rng, 40, 3),
	)
	return out
}

// BenchmarkColdInit measures solver initialization — MinSep(G), PMC(G),
// the block structure and the baseline DP — over a fixed corpus under
// width and fill, the cost every request of a write path pays before its
// first result. One op initializes every (graph, cost) pair once.
func BenchmarkColdInit(b *testing.B) {
	graphs := coldInitCorpus()
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi, g := range graphs {
			for _, c := range costs {
				s, err := New(context.Background(), g, c, Options{})
				if err != nil {
					b.Fatalf("graph %d %s: %v", gi, c.Name(), err)
				}
				if s.NumFullBlocks() == 0 {
					b.Fatalf("graph %d %s: no full blocks", gi, c.Name())
				}
			}
		}
	}
	b.ReportMetric(float64(len(graphs)*len(costs)), "inits/op")
}
