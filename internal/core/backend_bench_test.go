package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkBackendCrossover measures the quantity SelectBackend trades on:
// the ranked DP's full initialization (New — exactly what the service
// runs inside InitTimeout) against the MIS backend's
// time-to-first-result, which needs no PMC table at all. Two regimes:
//
//   - gnp26: separator-rich ConnectedGNP(n=26, p=0.35), ~700 minimal
//     separators — the DP pays seconds of table-building before rank 1,
//     while MIS streams its first triangulation in microseconds. This is
//     the degraded-mode case ?backend=mis exists for.
//   - tree40c3: TreePlusChords(n=40, chords=3), near-chordal — both are
//     cheap and the DP's ranked order is worth keeping, which is why the
//     auto probe routes such graphs to DP.
//
// Recorded in BENCH_backend.json; the acceptance bar of ISSUE 6 is MIS
// time-to-first-result ≥ 10x below DP init on the separator-rich instance.
func BenchmarkBackendCrossover(b *testing.B) {
	cases := []struct {
		name string
		make func() *graph.Graph
	}{
		{"gnp26", func() *graph.Graph {
			return gen.ConnectedGNP(rand.New(rand.NewSource(42)), 26, 0.35)
		}},
		{"tree40c3", func() *graph.Graph {
			return gen.TreePlusChords(rand.New(rand.NewSource(43)), 40, 3)
		}},
	}
	c := cost.FillIn{}
	for _, tc := range cases {
		g := tc.make()
		b.Run(tc.name+"/dp-init", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(context.Background(), g, c, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/dp-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := New(context.Background(), g, c, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := s.EnumerateContext(context.Background()).Next(); !ok {
					b.Fatal("empty enumeration")
				}
			}
		})
		b.Run(tc.name+"/mis-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewMISBackend(g, c, MISOptions{}).EnumerateContext(context.Background())
				if _, ok := e.Next(); !ok {
					b.Fatal("empty enumeration")
				}
			}
		})
	}
}
