package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkColdInit measures solver initialization — MinSep(G), PMC(G),
// the block structure and the baseline DP — over a fixed corpus under
// width and fill, the cost every request of a write path pays before its
// first result. One op initializes every (graph, cost) pair once.
func BenchmarkColdInit(b *testing.B) { benchCold(b, 0) }

// BenchmarkColdFirstResult measures what a cold request waits for before
// its first result: New plus the first Next over the same corpus and
// costs as BenchmarkColdInit. The enumeration emits before it splits, so
// its solves/op reads 0.
func BenchmarkColdFirstResult(b *testing.B) { benchCold(b, 1) }

// BenchmarkColdFirstPage measures a cold bounded read, the shape of a
// cold-solve request: New plus 20 Next calls at GOMAXPROCS branch
// workers over the same corpus and costs. Branches are solved only when
// they reach the top of the queue, so solves/op counts the constrained
// solves those 20 results needed (DESIGN.md, "Solve on pop").
func BenchmarkColdFirstPage(b *testing.B) { benchCold(b, 20) }

// benchCold initializes every (graph, cost) pair once per op and draws
// up to results results from each solver at GOMAXPROCS branch workers.
//
// solves/op depends on GOMAXPROCS through the branch batch, and under a
// -cpu list with -benchtime 1x every entry prints the figure of Go's
// first probe run, which runs at the ambient GOMAXPROCS: on a 2-vCPU
// host `go test ./internal/core -run '^$' -bench BenchmarkColdFirstPage
// -benchtime 1x -cpu 1,2` prints 450 solves/op under both names, and
// -benchtime 2x prints 441 and 450.
func benchCold(b *testing.B, results int) {
	graphs := gen.ColdInitCorpus()
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}}
	var solves uint64
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
				if results == 0 {
					continue
				}
				e := s.EnumerateContext(context.Background())
				for k := 0; k < results; k++ {
					if _, ok := e.Next(); !ok {
						if k == 0 {
							b.Fatalf("graph %d %s: no first result", gi, c.Name())
						}
						break
					}
				}
				solves += s.ReuseStats().ConstrainedSolves
			}
		}
	}
	if results > 0 {
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	}
	b.ReportMetric(float64(len(graphs)*len(costs)), "inits/op")
}

// BenchmarkMISColdPage measures a cold bounded read on the MIS route, the
// shape of cold-solve's auto-routed MIS requests: NewMISBackend plus 20
// Next calls under width and fill over misColdCorpus. Each result runs
// LB-Triang, one chordal search and, when new, a clique tree; the
// routing probe runs while the corpus is built and is not timed.
func BenchmarkMISColdPage(b *testing.B) {
	graphs := misColdCorpus(30)
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi, g := range graphs {
			for _, c := range costs {
				e := NewMISBackend(g, c, MISOptions{}).EnumerateContext(context.Background())
				for k := 0; k < 20; k++ {
					if _, ok := e.Next(); !ok {
						b.Fatalf("graph %d %s: only %d results", gi, c.Name(), k)
					}
				}
			}
		}
	}
	b.ReportMetric(float64(len(graphs)*len(costs)), "pages/op")
}

// misColdCorpus draws connected G(n, p), n = 28–36 and p = 0.25–0.35,
// from a fixed seed and keeps the first count graphs SelectBackend routes
// to MIS.
func misColdCorpus(count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(2531))
	var out []*graph.Graph
	for k := 0; len(out) < count; k++ {
		g := gen.ConnectedGNP(rng, 28+k%9, 0.25+0.1*float64(k%4)/3)
		if SelectBackend(context.Background(), g, BackendAuto, 0) == BackendMIS {
			out = append(out, g)
		}
	}
	return out
}
