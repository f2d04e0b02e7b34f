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
func BenchmarkColdInit(b *testing.B) { benchCold(b, false) }

// BenchmarkColdFirstResult measures what a cold request waits for before
// its first result: New plus the first Next over the same corpus and
// costs as BenchmarkColdInit. The enumeration emits before it splits, so
// the first Next only pops the initial optimum; solves/op counts the
// constrained solves and skipped branches the first results paid for.
func BenchmarkColdFirstResult(b *testing.B) { benchCold(b, true) }

// benchCold initializes every (graph, cost) pair once per op and, when
// first is set, draws each solver's first result.
func benchCold(b *testing.B, first bool) {
	graphs := gen.ColdInitCorpus()
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}}
	var branches uint64
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
				if !first {
					continue
				}
				if _, ok := s.EnumerateContext(context.Background()).Next(); !ok {
					b.Fatalf("graph %d %s: no first result", gi, c.Name())
				}
				st := s.ReuseStats()
				branches += st.ConstrainedSolves + st.EmptyBranches
			}
		}
	}
	if first {
		b.ReportMetric(float64(branches)/float64(b.N), "solves/op")
	}
	b.ReportMetric(float64(len(graphs)*len(costs)), "inits/op")
}
