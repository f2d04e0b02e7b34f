package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
)

// BenchmarkAtomsDelay measures per-result delay on clique-separated
// instances — chains of dense blobs glued on small shared cliques — with
// the atom decomposition on ("decomposed") and off ("nodecompose"). The
// decomposition's promise is that delay depends on the largest atom
// rather than the whole graph: each Next() advances one atom's
// Lawler–Murty machine instead of branching over every separator of a
// whole-graph result. Recorded in BENCH_atoms.json; the acceptance bar of
// ISSUE 3 is ≥ 3x.
//
// Solver initialization (including the lazy parallel sub-solver builds,
// forced by the warm-up Next) runs off the clock; BenchmarkAtomsInit
// reports it separately.
func BenchmarkAtomsDelay(b *testing.B) {
	cases := []struct {
		name     string
		blobs    int
		blobSize int
		sepSize  int
		c        cost.Cost
	}{
		{"chain4x10fill", 4, 10, 2, cost.FillIn{}},
		{"chain4x8width", 4, 8, 2, cost.Width{}},
		{"chain6x8fill", 6, 8, 2, cost.FillIn{}},
	}
	for _, tc := range cases {
		g := gen.CliqueChain(rand.New(rand.NewSource(11)), tc.blobs, tc.blobSize, tc.sepSize, 0.5)
		for _, mode := range []struct {
			name  string
			noDec bool
		}{{"decomposed", false}, {"nodecompose", true}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				s, err := New(context.Background(), g, tc.c, Options{noDecompose: mode.noDec})
				if err != nil {
					b.Fatal(err)
				}
				e := s.EnumerateContext(context.Background())
				if _, ok := e.Next(); !ok {
					b.Fatal("empty enumeration")
				}
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
			})
		}
	}
}

// BenchmarkAtomsInit measures solver initialization on the same
// clique-separated family: the decomposition replaces one whole-graph
// MinSep/PMC/block computation (exponential in the whole graph's
// separator structure) by one per atom plus a polynomial decomposition
// pass. Sub-solver builds are forced so both modes pay their full
// initialization inside the loop.
func BenchmarkAtomsInit(b *testing.B) {
	g := gen.CliqueChain(rand.New(rand.NewSource(11)), 4, 8, 2, 0.5)
	for _, mode := range []struct {
		name  string
		noDec bool
	}{{"decomposed", false}, {"nodecompose", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := New(context.Background(), g, cost.FillIn{}, Options{noDecompose: mode.noDec})
				if err != nil {
					b.Fatal(err)
				}
				if r, err := s.MinTriang(nil); err != nil || r == nil {
					b.Fatal("no optimum")
				}
			}
		})
	}
}
