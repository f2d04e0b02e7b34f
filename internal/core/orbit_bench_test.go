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

// disjointUnion embeds two graphs side by side — the single-graph form of
// a gen.IsoCopies family, whose automorphism group is the wreath-style
// product of the copies' groups with the copy swap.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	na, nb := a.Universe(), b.Universe()
	g := graph.New(na + nb)
	for u := 0; u < na; u++ {
		for v := u + 1; v < na; v++ {
			if a.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
	}
	for u := 0; u < nb; u++ {
		for v := u + 1; v < nb; v++ {
			if b.HasEdge(u, v) {
				g.AddEdge(na+u, na+v)
			}
		}
	}
	return g
}

// BenchmarkOrbitStream measures orbit-reduced enumeration against the
// unreduced stream on symmetric families (a circulant with |Aut| = 18, a
// two-copy gen.IsoCopies union with |Aut| = 288, the 3×3 grid with
// |Aut| = 8, and three copies of C5 with |Aut| = 6000, whose 125
// triangulations form one orbit — the family where per-result keying
// costs most against the plain drain) and on an asymmetric G(n,p)
// control where orbit mode must be near-free (trivial group → one
// automorphism search, then passthrough). Each iteration drains a fresh
// enumeration — including the orbit backend's group computation, since
// the serving tier pays that per stream. Reported metrics: results/op
// (stream length; the reduction factor is plain/orbit), solves/op
// (constrained Lawler–Murty solves), emptybranches/op (branches the
// separator-crossing test proved empty and never solved), and
// orbitsum/op (Σ OrbitSize — must equal the plain stream length).
// Measured drain times are recorded in DESIGN.md, "Orbit-reduced
// enumeration".
func BenchmarkOrbitStream(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	copies := gen.IsoCopies(rng, gen.CirculantGraph(6, []int{1}), 2)
	c5 := gen.Cycle(5)
	const uncapped = 1 << 30
	families := []struct {
		name string
		g    *graph.Graph
		cap  int // drain bound; the control caps both modes at equal work
	}{
		{"circulant9", gen.CirculantGraph(9, []int{1}), uncapped},
		{"isocopies-2xC6", disjointUnion(copies[0], copies[1]), uncapped},
		{"grid3x3", gen.Grid(3, 3), uncapped},
		{"3xC5", disjointUnion(disjointUnion(c5, c5), c5), uncapped},
		{"gnp12-control", gen.ConnectedGNP(rand.New(rand.NewSource(11)), 12, 0.3), 200},
	}
	for _, fam := range families {
		for _, mode := range []string{"plain", "orbit"} {
			mode := mode
			fam := fam
			b.Run(fmt.Sprintf("family=%s/mode=%s", fam.name, mode), func(b *testing.B) {
				s, err := New(context.Background(), fam.g, cost.FillIn{}, Options{noDecompose: true})
				if err != nil {
					b.Fatal(err)
				}
				before := s.ReuseStats()
				var results, orbitSum int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var back Backend = s
					if mode == "orbit" {
						back = NewOrbitBackend(s, nil)
					}
					e := back.EnumerateContext(context.Background())
					n := 0
					for n < fam.cap {
						r, ok := e.Next()
						if !ok {
							break
						}
						n++
						if mode == "orbit" {
							orbitSum += r.OrbitSize
						}
					}
					results += int64(n)
				}
				b.StopTimer()
				after := s.ReuseStats()
				b.ReportMetric(float64(results)/float64(b.N), "results/op")
				b.ReportMetric(float64(after.ConstrainedSolves-before.ConstrainedSolves)/float64(b.N), "solves/op")
				b.ReportMetric(float64(after.EmptyBranches-before.EmptyBranches)/float64(b.N), "emptybranches/op")
				if mode == "orbit" {
					b.ReportMetric(float64(orbitSum)/float64(b.N), "orbitsum/op")
				}
			})
		}
	}
}
