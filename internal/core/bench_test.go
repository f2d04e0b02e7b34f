package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

func delayBenchGraph(n int, p float64, seed int64) *graph.Graph {
	return gen.ConnectedGNP(rand.New(rand.NewSource(seed)), n, p)
}

// BenchmarkEnumerateDelay measures the time per Next() call after the
// first result — the paper's "delay" — on paper-style G(n, p) instances.
// Each iteration advances a warm enumeration by one result; exhausted
// enumerations are restarted (and their first result consumed) off the
// clock. This is the headline number the incremental constraint-aware DP
// targets: every Next() solves the Lawler–Murty branches that reach the
// top of the queue, at most one per fresh separator of each earlier
// result, and none the separator-crossing test proves empty (reported
// as emptybranches/op).
func BenchmarkEnumerateDelay(b *testing.B) {
	cases := []struct {
		name string
		n    int
		p    float64
		c    cost.Cost
	}{
		{"n14p30width", 14, 0.30, cost.Width{}},
		{"n16p25width", 16, 0.25, cost.Width{}},
		{"n16p25fill", 16, 0.25, cost.FillIn{}},
	}
	for _, tc := range cases {
		for _, mode := range []string{"incremental", "fullresolve"} {
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				g := delayBenchGraph(tc.n, tc.p, 7)
				// Pin the monolithic machine: this benchmark measures the
				// incremental constraint-aware DP, and a sparse G(n,p)
				// instance may otherwise route through the atom
				// decomposition (BenchmarkAtomsDelay covers that).
				s, err := New(context.Background(), g, tc.c, Options{noDecompose: true})
				if err != nil {
					b.Fatal(err)
				}
				s.setFullResolve(mode == "fullresolve")
				e := s.EnumerateContext(context.Background())
				if _, ok := e.Next(); !ok {
					b.Fatal("empty enumeration")
				}
				before := s.ReuseStats().EmptyBranches
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := e.Next(); !ok {
						b.StopTimer()
						e = s.EnumerateContext(context.Background())
						if _, ok := e.Next(); !ok {
							b.Fatal("empty enumeration")
						}
						b.StartTimer()
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(s.ReuseStats().EmptyBranches-before)/float64(b.N), "emptybranches/op")
			})
		}
	}
}

// BenchmarkBranchParallel measures the per-rank delay of the parallel
// branch solver at increasing worker counts, set through withWorkers, on
// a separator-rich G(n, p) instance. Each Next() of the ranked
// enumeration solves the unsolved partitions at the top of the queue, up
// to one per worker at a time — independent solves the paper notes can
// run concurrently (§7.1) — so a batch wider than one only pays where
// several branches would be solved anyway. Run on one core the worker pool only adds scheduling overhead;
// interpret the scaling numbers alongside GOMAXPROCS (DESIGN.md,
// "Parallel branch solving").
func BenchmarkBranchParallel(b *testing.B) {
	g := delayBenchGraph(16, 0.25, 7)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Monolithic machine for the same reason as BenchmarkEnumerateDelay:
			// the branch fan-out being measured lives inside one DP instance.
			s, err := New(context.Background(), g, cost.FillIn{}, Options{noDecompose: true})
			if err != nil {
				b.Fatal(err)
			}
			e := withWorkers(s.EnumerateContext(context.Background()), workers)
			if _, ok := e.Next(); !ok {
				b.Fatal("empty enumeration")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Next(); !ok {
					b.StopTimer()
					e = withWorkers(s.EnumerateContext(context.Background()), workers)
					if _, ok := e.Next(); !ok {
						b.Fatal("empty enumeration")
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkMinTriangConstrained measures one constrained re-solve — the
// unit of work of every Lawler–Murty branch.
func BenchmarkMinTriangConstrained(b *testing.B) {
	g := delayBenchGraph(16, 0.25, 7)
	s := mustNew(g, cost.Width{})
	r, err := s.MinTriang(nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(r.Seps) < 2 {
		b.Fatal("want at least two separators")
	}
	cons := (&cost.Constraints{}).WithInclude(r.Seps[0]).WithExclude(r.Seps[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MinTriang(cons); err != nil {
			b.Fatal(err)
		}
	}
}
