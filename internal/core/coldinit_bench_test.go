package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
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
