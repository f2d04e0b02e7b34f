package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// backendOracleCap bounds one enumeration drain in the oracle tests; no
// graph in their size range comes near it, so hitting the cap means a
// backend loops.
const backendOracleCap = 20000

// drainBackend drains a backend's enumeration into a canonical result
// set: triangulation edge-set key → cost. The map form is the "canonical
// tie-sort" — two backends agree iff they produce the same triangulation
// set with the same cost attached to each member, regardless of order.
func drainBackend(t *testing.T, b Backend) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	e := b.EnumerateContext(context.Background())
	for i := 0; ; i++ {
		if i > backendOracleCap {
			t.Fatalf("backend %s exceeded %d results; runaway enumeration", b.BackendKind(), backendOracleCap)
		}
		r, ok := e.Next()
		if !ok {
			return out
		}
		key := r.H.EdgeSetKey()
		if prev, dup := out[key]; dup {
			t.Fatalf("backend %s emitted a duplicate triangulation (cost %v then %v)", b.BackendKind(), prev, r.Cost)
		}
		out[key] = r.Cost
	}
}

// checkBackendsAgree asserts that the MIS backend emits exactly the DP
// backend's result set — same triangulations, same costs — on g. This is
// the Parra–Scheffler equivalence the backend subsystem rests on: both
// machines enumerate the same mathematical object.
func checkBackendsAgree(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	c := cost.FillIn{}
	s, err := New(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("%s: solver init: %v", label, err)
	}
	dp := drainBackend(t, s)
	mis := drainBackend(t, NewMISBackend(g, c, MISOptions{}))
	if len(mis) != len(dp) {
		t.Fatalf("%s: MIS found %d triangulations, DP found %d", label, len(mis), len(dp))
	}
	for key, dpCost := range dp {
		misCost, ok := mis[key]
		if !ok {
			t.Fatalf("%s: MIS missed a triangulation DP found (cost %v)", label, dpCost)
		}
		if misCost != dpCost {
			t.Fatalf("%s: MIS disagrees on cost: %v vs DP %v", label, misCost, dpCost)
		}
	}
}

// maskGraph builds the graph on n vertices whose edge set is the given
// bitmask over the n(n-1)/2 vertex pairs in lexicographic order.
func maskGraph(n int, mask int) *graph.Graph {
	g := graph.New(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<bit) != 0 {
				g.AddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// TestBackendOracleAllSmallGraphs proves backend equivalence exhaustively:
// on EVERY graph with up to 6 vertices (33k graphs — connected or not,
// chordal or not), the MIS backend produces exactly the DP backend's
// triangulation set with identical costs. Sharded across
// GOMAXPROCS goroutines, which doubles as race coverage for the
// construction paths under -race.
func TestBackendOracleAllSmallGraphs(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	for n := 1; n <= maxN; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			pairs := n * (n - 1) / 2
			total := 1 << pairs
			workers := runtime.GOMAXPROCS(0)
			if workers > total {
				workers = total
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mask := w; mask < total; mask += workers {
						if t.Failed() {
							return
						}
						checkBackendsAgree(t, maskGraph(n, mask), fmt.Sprintf("n=%d mask=%d", n, mask))
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestBackendOracleRandomMedium extends the exhaustive sweep with random
// G(n,p) graphs at n = 7 and 8, where full enumeration is still cheap but
// the separator structure is meaningfully richer than at n ≤ 6.
func TestBackendOracleRandomMedium(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{7, 8} {
		for _, p := range []float64{0.3, 0.5} {
			for trial := 0; trial < trials; trial++ {
				g := gen.GNP(rng, n, p)
				checkBackendsAgree(t, g, fmt.Sprintf("gnp n=%d p=%v trial=%d", n, p, trial))
			}
		}
	}
}
