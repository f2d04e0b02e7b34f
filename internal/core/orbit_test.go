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

// resultOrbitKey encodes "same triangulation up to Aut(G)" as a
// colored-graph canonical form: a 2k-vertex layered graph whose A-layer
// carries G, whose B-layer carries H, and whose only cross edges are the
// perfect matching identifying the layers, canonicalized under the
// ordered partition [A, B]. A cell-preserving isomorphism must map the
// matching to itself (it is the only A–B adjacency), so it acts as one
// permutation γ on both layers; preserving the A-layer makes γ an
// automorphism of G, preserving the B-layer makes γ(H) = H'. Hence keys
// are equal iff the triangulations lie in the same Aut(G)-orbit, and the
// layered graph's own cell-preserving automorphism group is exactly
// Stab_{Aut(G)}(H) — the stabilizer the orbit size needs.
func resultOrbitKey(g *graph.Graph, h *graph.Graph) (string, *graph.AutGroup, bool) {
	verts := g.Vertices().Slice()
	k := len(verts)
	l := graph.New(2 * k)
	a := make([]int, k)
	bb := make([]int, k)
	for i := 0; i < k; i++ {
		a[i], bb[i] = i, k+i
		l.AddEdge(i, k+i)
		for j := i + 1; j < k; j++ {
			if g.HasEdge(verts[i], verts[j]) {
				l.AddEdge(i, j)
			}
			if h.HasEdge(verts[i], verts[j]) {
				l.AddEdge(k+i, k+j)
			}
		}
	}
	return l.CanonicalKeyCells([][]int{a, bb}, 0)
}

// checkOrbitInvariant is the orbit-mode oracle on one graph under the
// fill cost: the reduced stream must be the unreduced stream filtered to
// the first member of each Aut(G)-orbit, element for element (same
// triangulation, same cost, same order), each representative stamped
// with its orbit's true cardinality. Concretely, keying every unreduced
// result by its orbit canonical form must reproduce the reduced stream's
// (key → (size, cost)) map exactly, and Σ OrbitSize must equal the
// unreduced length. The orbit backend is drained sequentially and over
// GOMAXPROCS branch workers.
func checkOrbitInvariant(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	c := cost.FillIn{}
	s, err := New(context.Background(), g, c, Options{noDecompose: true})
	if err != nil {
		t.Fatalf("%s: solver init: %v", label, err)
	}
	full := drainResults(t, s.EnumerateContext(context.Background()))

	// Expected orbit structure, computed independently of the filter's
	// dedup bookkeeping: group the unreduced stream by orbit key, and keep
	// the first member of each orbit in stream order.
	type orbit struct {
		size int64
		cost float64
	}
	want := make(map[string]orbit)
	var firsts []*Result
	for _, r := range full {
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("%s: oracle orbit key fell back on a tiny graph", label)
		}
		o, seen := want[key]
		if !seen {
			firsts = append(firsts, r)
		} else if o.cost != r.Cost {
			t.Fatalf("%s: one orbit, two costs (%v vs %v) — cost not label-invariant?", label, o.cost, r.Cost)
		}
		want[key] = orbit{size: o.size + 1, cost: r.Cost}
	}

	ob := NewOrbitBackend(s, nil)
	for _, drain := range []struct {
		mode string
		e    *Enumerator
	}{
		{"sequential", withWorkers(ob.EnumerateContext(context.Background()), 1)},
		{"parallel", ob.EnumerateContext(context.Background())},
	} {
		reduced := drainResults(t, drain.e)
		if len(reduced) != len(firsts) {
			t.Fatalf("%s %s: %d orbit representatives, want %d orbits", label, drain.mode, len(reduced), len(firsts))
		}
		var sum int64
		for i, r := range reduced {
			if r.H.EdgeSetKey() != firsts[i].H.EdgeSetKey() || r.Cost != firsts[i].Cost {
				t.Fatalf("%s %s: representative %d is not the first member of its orbit in the unreduced stream", label, drain.mode, i)
			}
			key, _, exact := resultOrbitKey(g, r.H)
			if !exact {
				t.Fatalf("%s: orbit key fell back on a tiny graph", label)
			}
			if w := want[key]; r.OrbitSize != w.size || r.Cost != w.cost {
				t.Fatalf("%s %s: orbit reported (size=%d cost=%v), want (size=%d cost=%v)",
					label, drain.mode, r.OrbitSize, r.Cost, w.size, w.cost)
			}
			sum += r.OrbitSize
		}
		if sum != int64(len(full)) {
			t.Fatalf("%s %s: Σ orbit sizes = %d, unreduced stream length = %d", label, drain.mode, sum, len(full))
		}
	}
}

// TestOrbitOracleAllSmallGraphs proves the orbit-mode invariant
// exhaustively on every graph with up to 6 vertices (33k graphs): the
// reduced stream is the first-of-orbit subsequence of the unreduced one,
// Σ orbit sizes matches the unreduced stream length and the multiset of
// (cost, orbit-canonical form, size) is reproduced exactly.
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

// TestOrbitComposesAtomsAndBackends is the cross-engine property test:
// orbit mode must produce identical orbit-representative multisets —
// same orbits, same sizes, same costs — whether the inner engine is the
// monolithic DP, the atom-decomposed DP, or the MIS backend, on random
// n=7..8 graphs.
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

// TestOrbitFirstOfOrbitNamedGraphs runs the orbit oracle on symmetric
// inputs whose Lawler–Murty trees hold Aut(G)-equivalent constraint sets
// — the 3×3 grid (|Aut| = 8) and the pentagonal prism (C10 with jumps 2
// and 5, |Aut| = 20) under fill — and checks that the stream is actually
// reduced, that the counters report the group order, that a finished
// drain releases the filter's keys (the serving tier's stream cache keeps
// exhausted enumerators), and that a 4-worker drain is identical to the
// sequential one.
func TestOrbitFirstOfOrbitNamedGraphs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		order uint64
	}{
		{"grid3x3", gen.Grid(3, 3), 8},
		{"prism-C5", gen.CirculantGraph(10, []int{2, 5}), 20},
	} {
		checkOrbitInvariant(t, tc.g, tc.name)

		s, err := New(context.Background(), tc.g, cost.FillIn{}, Options{noDecompose: true})
		if err != nil {
			t.Fatalf("%s: solver init: %v", tc.name, err)
		}
		full := drainResults(t, s.EnumerateContext(context.Background()))
		counters := &OrbitCounters{}
		ob := NewOrbitBackend(s, counters)
		seqEnum := withWorkers(ob.EnumerateContext(context.Background()), 1)
		if seqEnum.m.(*orbitFilter).keys == nil {
			t.Fatalf("%s: orbit filter started without keys on a symmetric graph", tc.name)
		}
		seq := drainResults(t, seqEnum)
		if seqEnum.m.(*orbitFilter).keys != nil {
			t.Fatalf("%s: finished drain still holds the orbit filter's pending keys", tc.name)
		}
		par := drainResults(t, withWorkers(ob.EnumerateContext(context.Background()), 4))

		if len(seq) >= len(full) {
			t.Fatalf("%s: orbit stream not reduced: %d of %d", tc.name, len(seq), len(full))
		}
		var sum int64
		for _, r := range seq {
			sum += r.OrbitSize
		}
		if sum != int64(len(full)) {
			t.Fatalf("%s: Σ orbit sizes = %d, unreduced length = %d", tc.name, sum, len(full))
		}
		if st := counters.Snapshot(); st.MaxGroupOrder != tc.order {
			t.Fatalf("%s: max group order %d, want %d", tc.name, st.MaxGroupOrder, tc.order)
		}
		if len(par) != len(seq) {
			t.Fatalf("%s: parallel stream length %d, sequential %d", tc.name, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].H.EdgeSetKey() != par[i].H.EdgeSetKey() ||
				seq[i].OrbitSize != par[i].OrbitSize || seq[i].Cost != par[i].Cost {
				t.Fatalf("%s: parallel stream diverges from sequential at result %d", tc.name, i)
			}
		}
	}
}

// TestOrbitClosureBudgetDegrades starves the orbit-closure bound on C8
// under fill (|Aut| = 16; every triangulation has fill 5), so that the
// first orbit (8 members) closes and a later one (16 members) overflows.
// From the overflow on the filter closes no more orbits: keys already
// pending still suppress their orbit's members and every other result
// passes with OrbitSize 1. The stream must stay ranked, Σ OrbitSize must
// equal the unreduced length, the results before the overflow must be the
// unbudgeted reduced stream's prefix, and no orbit closed before the
// overflow may be emitted twice.
func TestOrbitClosureBudgetDegrades(t *testing.T) {
	g := gen.Cycle(8)
	s, err := New(context.Background(), g, cost.FillIn{}, Options{noDecompose: true})
	if err != nil {
		t.Fatalf("solver init: %v", err)
	}
	full := drainResults(t, s.EnumerateContext(context.Background()))
	unbudgeted := drainResults(t, NewOrbitBackend(s, nil).EnumerateContext(context.Background()))

	counters := &OrbitCounters{}
	e := (&orbitBackend{inner: s, counters: counters, closureBudget: 10}).EnumerateContext(context.Background())
	var reduced []*Result
	overflow := -1 // index of the result whose closure overflowed
	for {
		r, ok := e.Next()
		if !ok {
			break
		}
		if overflow < 0 && counters.InexactResultKeys.Load() > 0 {
			overflow = len(reduced)
		}
		reduced = append(reduced, r)
	}
	st := counters.Snapshot()
	if st.InexactResultKeys == 0 || overflow < 0 {
		t.Fatalf("closure bound 10 never overflowed on C8: %+v", st)
	}
	if overflow == 0 {
		t.Fatalf("closure bound 10 overflowed on the first orbit; the test needs one closed orbit first")
	}
	if got := st.Representatives + st.SkippedResults + st.InexactResultKeys; got != uint64(len(full)) {
		t.Fatalf("counters account for %d results, unreduced stream has %d: %+v", got, len(full), st)
	}

	var sum int64
	for i, r := range reduced {
		if i > 0 && r.Cost < reduced[i-1].Cost {
			t.Fatalf("degraded stream not ranked at %d: %v after %v", i, r.Cost, reduced[i-1].Cost)
		}
		sum += r.OrbitSize
	}
	if sum != int64(len(full)) {
		t.Fatalf("Σ orbit sizes = %d, unreduced length = %d", sum, len(full))
	}
	if r := reduced[overflow]; r.OrbitSize != 1 || r.H.EdgeSetKey() != unbudgeted[overflow].H.EdgeSetKey() {
		t.Fatalf("overflow result %d: size %d, want the unbudgeted representative with size 1", overflow, r.OrbitSize)
	}
	closed := make(map[string]bool)
	for i, r := range reduced[:overflow] {
		u := unbudgeted[i]
		if r.H.EdgeSetKey() != u.H.EdgeSetKey() || r.Cost != u.Cost || r.OrbitSize != u.OrbitSize {
			t.Fatalf("result %d before the overflow differs from the unbudgeted reduced stream", i)
		}
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("oracle orbit key fell back on C8")
		}
		if closed[key] {
			t.Fatalf("result %d repeats an orbit emitted before the overflow", i)
		}
		closed[key] = true
	}
	for i, r := range reduced[overflow:] {
		key, _, exact := resultOrbitKey(g, r.H)
		if !exact {
			t.Fatalf("oracle orbit key fell back on C8")
		}
		if closed[key] {
			t.Fatalf("result %d after the overflow lies in an orbit that closed before it", overflow+i)
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
