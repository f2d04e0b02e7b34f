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

// drainResults drains an enumerator into a slice, capped like the backend
// oracle drains.
func drainResults(t *testing.T, e *Enumerator) []*Result {
	t.Helper()
	var out []*Result
	for i := 0; ; i++ {
		if i > backendOracleCap {
			t.Fatalf("enumeration exceeded %d results; runaway", backendOracleCap)
		}
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// checkOrbitInvariant is the orbit-mode oracle on one graph: the reduced
// stream must consist of exactly one representative per Aut(G)-orbit of
// the unreduced stream, each stamped with the orbit's true cardinality
// and cost. Concretely, keying every unreduced result by its orbit
// canonical form must reproduce the reduced stream's (key → (size, cost))
// map exactly, and Σ OrbitSize must equal the unreduced length.
func checkOrbitInvariant(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	c := cost.FillIn{}
	s, err := New(context.Background(), g, c, Options{noDecompose: true})
	if err != nil {
		t.Fatalf("%s: solver init: %v", label, err)
	}
	full := drainResults(t, s.EnumerateContext(context.Background()))

	// Expected orbit structure, computed independently of the filter's
	// dedup bookkeeping: group the unreduced stream by orbit key.
	type orbit struct {
		size int64
		cost float64
	}
	want := make(map[string]orbit)
	for _, r := range full {
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("%s: oracle orbit key fell back on a tiny graph", label)
		}
		o, seen := want[key]
		if seen && o.cost != r.Cost {
			t.Fatalf("%s: one orbit, two costs (%v vs %v) — cost not label-invariant?", label, o.cost, r.Cost)
		}
		want[key] = orbit{size: o.size + 1, cost: r.Cost}
	}

	counters := &OrbitCounters{}
	ob := NewOrbitBackend(s, counters)
	reduced := drainResults(t, ob.EnumerateContext(context.Background()))

	var sum int64
	prev := -1.0
	got := make(map[string]orbit)
	for _, r := range reduced {
		if r.OrbitSize < 1 {
			t.Fatalf("%s: reduced stream emitted OrbitSize %d", label, r.OrbitSize)
		}
		sum += r.OrbitSize
		if r.Cost < prev {
			t.Fatalf("%s: reduced stream left ranked order (%v after %v)", label, r.Cost, prev)
		}
		prev = r.Cost
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("%s: orbit key fell back on a tiny graph", label)
		}
		if _, dup := got[key]; dup {
			t.Fatalf("%s: reduced stream emitted two members of one orbit", label)
		}
		got[key] = orbit{size: r.OrbitSize, cost: r.Cost}
	}
	if sum != int64(len(full)) {
		t.Fatalf("%s: Σ orbit sizes = %d, unreduced stream length = %d", label, sum, len(full))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d orbit representatives, want %d orbits", label, len(got), len(want))
	}
	for key, w := range want {
		gr, ok := got[key]
		if !ok {
			t.Fatalf("%s: an orbit of size %d (cost %v) has no representative", label, w.size, w.cost)
		}
		if gr.size != w.size || gr.cost != w.cost {
			t.Fatalf("%s: orbit reported (size=%d cost=%v), want (size=%d cost=%v)",
				label, gr.size, gr.cost, w.size, w.cost)
		}
	}
}

// TestOrbitOracleAllSmallGraphs proves the orbit-mode invariant
// exhaustively on every graph with up to 6 vertices (the ISSUE's 33k
// sweep): Σ orbit sizes matches the unreduced stream length and the
// multiset of (cost, orbit-canonical form, size) is reproduced exactly,
// with the Lawler–Murty branch pruner active throughout (monolithic DP).
func TestOrbitOracleAllSmallGraphs(t *testing.T) {
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
						checkOrbitInvariant(t, maskGraph(n, mask), fmt.Sprintf("n=%d mask=%d", n, mask))
					}
				}()
			}
			wg.Wait()
		})
	}
}

// orbitSignature drains an orbit-wrapped backend into the canonical
// (orbit key → size, cost) map used to compare orbit streams across
// engines that emit in different orders and pick different
// representatives.
func orbitSignature(t *testing.T, g *graph.Graph, b Backend) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, r := range drainResults(t, b.EnumerateContext(context.Background())) {
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("orbit key fell back")
		}
		if _, dup := out[key]; dup {
			t.Fatalf("backend %s emitted two members of one orbit", b.BackendKind())
		}
		out[key] = fmt.Sprintf("size=%d cost=%v", r.OrbitSize, r.Cost)
	}
	return out
}

// TestOrbitComposesAtomsAndBackends is the satellite property test: orbit
// mode must produce identical orbit-representative multisets — same
// orbits, same sizes, same costs — whether the inner engine is the
// monolithic DP (with branch pruning), the atom-decomposed DP (post-filter
// only), or either MIS backend (post-filter only), on random n=7..8
// graphs.
func TestOrbitComposesAtomsAndBackends(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(63))
	c := cost.FillIn{}
	for _, n := range []int{7, 8} {
		for _, p := range []float64{0.3, 0.5} {
			for trial := 0; trial < trials; trial++ {
				g := gen.GNP(rng, n, p)
				label := fmt.Sprintf("gnp n=%d p=%v trial=%d", n, p, trial)

				mono, err := New(context.Background(), g, c, Options{noDecompose: true})
				if err != nil {
					t.Fatalf("%s: monolithic init: %v", label, err)
				}
				ref := orbitSignature(t, g, NewOrbitBackend(mono, nil))

				dec, err := New(context.Background(), g, c, Options{})
				if err != nil {
					t.Fatalf("%s: decomposed init: %v", label, err)
				}
				alts := map[string]Backend{
					"dp-decomposed": NewOrbitBackend(dec, nil),
					"mis":           NewOrbitBackend(NewMISBackend(g, c, MISOptions{}), nil),
					"mis-scored":    NewOrbitBackend(NewMISBackend(g, c, MISOptions{Scored: true}), nil),
				}
				for name, b := range alts {
					sig := orbitSignature(t, g, b)
					if len(sig) != len(ref) {
						t.Fatalf("%s: %s found %d orbits, monolithic DP found %d", label, name, len(sig), len(ref))
					}
					for key, v := range ref {
						if sig[key] != v {
							t.Fatalf("%s: %s disagrees on an orbit: %q vs %q", label, name, sig[key], v)
						}
					}
				}
			}
		}
	}
}

// TestOrbitPrunerSkipsBranches pins the perf mechanism itself: on a
// symmetric input where Aut(G)-equivalent constraint sets arise in the
// Lawler–Murty tree, the monolithic DP must actually skip branches (not
// just post-filter results), the reduced stream must be shorter than the
// unreduced one, and the parallel-worker stream must be byte-identical to
// the sequential one (pruning happens in the deterministic
// single-threaded section). The 3×3 grid is the canonical firing input;
// cycles, notably, never collide (the include-prefix structure of LM
// constraint sets keeps them pairwise inequivalent there), which is why
// post-filtering — not pruning — carries the reduction guarantee.
func TestOrbitPrunerSkipsBranches(t *testing.T) {
	g := gen.Grid(3, 3) // |Aut| = 8
	c := cost.FillIn{}
	s, err := New(context.Background(), g, c, Options{noDecompose: true})
	if err != nil {
		t.Fatalf("solver init: %v", err)
	}
	full := drainResults(t, s.EnumerateContext(context.Background()))

	counters := &OrbitCounters{}
	ob := NewOrbitBackend(s, counters)
	seq := drainResults(t, ob.EnumerateContext(context.Background()))
	par := drainResults(t, ob.EnumerateParallelContext(context.Background(), 4))

	if len(seq) >= len(full) {
		t.Fatalf("orbit stream not reduced: %d of %d", len(seq), len(full))
	}
	var sum int64
	for _, r := range seq {
		sum += r.OrbitSize
	}
	if sum != int64(len(full)) {
		t.Fatalf("Σ orbit sizes = %d, unreduced length = %d", sum, len(full))
	}
	st := counters.Snapshot()
	if st.SkippedBranches == 0 {
		t.Fatalf("pruner skipped no branches on the 3x3 grid (counters: %+v)", st)
	}
	if st.MaxGroupOrder != 8 {
		t.Fatalf("max group order %d, want 8", st.MaxGroupOrder)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel stream length %d, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].H.EdgeSetKey() != par[i].H.EdgeSetKey() ||
			seq[i].OrbitSize != par[i].OrbitSize || seq[i].Cost != par[i].Cost {
			t.Fatalf("parallel stream diverges from sequential at result %d", i)
		}
	}
}

// TestOrbitInexactGroupDegradesToPassthrough pins the degraded mode: when
// the automorphism-group search cannot finish within budget, orbit mode
// must keep every result (OrbitSize 1) rather than dedup under an
// untrusted group.
func TestOrbitInexactGroupDegradesToPassthrough(t *testing.T) {
	g := gen.Cycle(9)
	c := cost.FillIn{}
	s, err := New(context.Background(), g, c, Options{noDecompose: true})
	if err != nil {
		t.Fatalf("solver init: %v", err)
	}
	full := drainResults(t, s.EnumerateContext(context.Background()))

	counters := &OrbitCounters{}
	ob := &orbitBackend{inner: s, counters: counters}
	// Force the degraded path with a starved group computation.
	aut := g.AutomorphismsBudget(4)
	if aut.Exact() {
		t.Fatalf("budget 4 unexpectedly completed the C9 automorphism search")
	}
	ob.once.Do(func() {}) // mark computed
	ob.aut = aut

	reduced := drainResults(t, ob.EnumerateContext(context.Background()))
	if len(reduced) != len(full) {
		t.Fatalf("degraded mode dropped results: %d of %d", len(reduced), len(full))
	}
	for _, r := range reduced {
		if r.OrbitSize != 1 {
			t.Fatalf("degraded mode emitted OrbitSize %d", r.OrbitSize)
		}
	}
	if counters.Snapshot().InexactGroups != 1 {
		t.Fatalf("inexact-group counter not bumped: %+v", counters.Snapshot())
	}
}
