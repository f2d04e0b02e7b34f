package core

import (
	"context"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/graph"
)

// Orbit-reduced enumeration (see DESIGN.md, "Orbit-reduced enumeration"):
// a wrapper backend that collapses the ranked result stream modulo the
// automorphism group of the input graph. The unreduced stream emits every
// minimal triangulation individually, so a symmetric input pays for
// |Aut(G)|-many label-equivalent results per orbit; the orbit backend
// emits exactly one representative per orbit and stamps it with the orbit
// size (so consumers can reconstruct full counts: Σ OrbitSize over the
// reduced stream equals the unreduced stream length). It is one
// post-filter over the inner stream: the representative of an orbit is
// its first member in the unreduced stream, so the reduced stream is the
// first-of-orbit subsequence of the unreduced one.
//
// Soundness requires a label-invariant cost (every member of an orbit
// then has the same cost, so a representative speaks for its orbit and
// the ranked order survives the filtering). The serving tier gates the
// mode on that property; library callers are trusted.

// OrbitCounters aggregates the observability counters of one or more
// orbit backends. All fields are updated atomically; a zero value is
// ready to use. The serving tier keeps one per server and surfaces a
// snapshot in /v1/stats.
type OrbitCounters struct {
	// Enumerations counts orbit-mode enumeration starts; TrivialGroups
	// and InexactGroups count the ones that degraded to passthrough
	// (identity automorphism group, respectively budget-exhausted group
	// computation).
	Enumerations  atomic.Uint64
	TrivialGroups atomic.Uint64
	InexactGroups atomic.Uint64

	// Representatives counts emitted orbit representatives;
	// SkippedResults counts stream members suppressed as duplicates of an
	// already-emitted representative.
	Representatives atomic.Uint64
	SkippedResults  atomic.Uint64

	// InexactResultKeys counts canonical-key searches that blew their
	// budget: the result was then emitted unreduced rather than risking
	// an unsound skip.
	InexactResultKeys atomic.Uint64

	maxGroupOrder atomic.Uint64 // largest |Aut(G)| seen, saturating
}

// noteGroupOrder raises the max-group-order watermark.
func (c *OrbitCounters) noteGroupOrder(order uint64) {
	for {
		cur := c.maxGroupOrder.Load()
		if order <= cur || c.maxGroupOrder.CompareAndSwap(cur, order) {
			return
		}
	}
}

// OrbitStats is a point-in-time snapshot of OrbitCounters, shaped for
// the service's /v1/stats payload. SkippedBranches always reads 0: orbit
// mode prunes no Lawler–Murty branches, and the field remains only
// because benchrun/layers.go reads it for its core.orbit_skipped_branches
// metric.
type OrbitStats struct {
	Enumerations      uint64 `json:"enumerations"`
	TrivialGroups     uint64 `json:"trivial_groups"`
	InexactGroups     uint64 `json:"inexact_groups"`
	Representatives   uint64 `json:"representatives"`
	SkippedResults    uint64 `json:"skipped_results"`
	SkippedBranches   uint64 `json:"skipped_branches"`
	InexactResultKeys uint64 `json:"inexact_result_keys"`
	MaxGroupOrder     uint64 `json:"max_group_order"`
}

// Snapshot returns the current counter values.
func (c *OrbitCounters) Snapshot() OrbitStats {
	return OrbitStats{
		Enumerations:      c.Enumerations.Load(),
		TrivialGroups:     c.TrivialGroups.Load(),
		InexactGroups:     c.InexactGroups.Load(),
		Representatives:   c.Representatives.Load(),
		SkippedResults:    c.SkippedResults.Load(),
		InexactResultKeys: c.InexactResultKeys.Load(),
		MaxGroupOrder:     c.maxGroupOrder.Load(),
	}
}

// orbitBackend wraps any Backend with the orbit post-filter.
type orbitBackend struct {
	inner    Backend
	counters *OrbitCounters

	once sync.Once
	aut  *graph.AutGroup
}

// NewOrbitBackend wraps inner so its enumerations emit one representative
// per Aut(G)-orbit, each stamped with Result.OrbitSize. counters may be
// nil (a private set is used). The wrapped stream is deterministic (the
// SharedStream contract) and stays ranked whenever inner is ranked.
//
// The caller is responsible for only enabling the mode under a
// label-invariant cost; with a label-sensitive cost the orbit collapse
// would merge results of different costs.
func NewOrbitBackend(inner Backend, counters *OrbitCounters) Backend {
	if counters == nil {
		counters = &OrbitCounters{}
	}
	return &orbitBackend{inner: inner, counters: counters}
}

func (b *orbitBackend) BackendKind() BackendKind { return b.inner.BackendKind() }
func (b *orbitBackend) Ranked() bool             { return b.inner.Ranked() }
func (b *orbitBackend) Graph() *graph.Graph      { return b.inner.Graph() }
func (b *orbitBackend) Cost() cost.Cost          { return b.inner.Cost() }

// Aut returns the automorphism group the backend reduces under, computing
// it on first use.
func (b *orbitBackend) Aut() *graph.AutGroup {
	b.once.Do(func() { b.aut = b.inner.Graph().Automorphisms() })
	return b.aut
}

func (b *orbitBackend) EnumerateContext(ctx context.Context) *Enumerator {
	return b.EnumerateParallelContext(ctx, 1)
}

func (b *orbitBackend) EnumerateParallelContext(ctx context.Context, workers int) *Enumerator {
	aut := b.Aut()
	b.counters.Enumerations.Add(1)
	if o := aut.Order(); o.IsUint64() {
		b.counters.noteGroupOrder(o.Uint64())
	} else {
		b.counters.noteGroupOrder(math.MaxUint64)
	}
	f := &orbitFilter{g: b.inner.Graph(), counters: b.counters}
	switch {
	case !aut.Exact():
		// Degraded mode: the generators found are genuine but may not
		// generate all of Aut(G), so neither the orbit keys (which decide
		// equivalence under the FULL group) nor the orbit sizes are
		// trustworthy. Pass everything through with OrbitSize 1 — Σ orbit
		// sizes still equals the unreduced length, just without reduction.
		b.counters.InexactGroups.Add(1)
		f.passthrough = true
	case aut.IsTrivial():
		// Every orbit is a singleton: skip the per-result canonical keying
		// entirely. This is what keeps orbit mode near-free on asymmetric
		// inputs — one automorphism search at enumeration start, then a
		// plain passthrough.
		b.counters.TrivialGroups.Add(1)
		f.passthrough = true
	default:
		f.order = aut.Order()
		f.seen = make(map[string]struct{})
	}
	f.inner = b.inner.EnumerateParallelContext(ctx, workers)
	return &Enumerator{m: f}
}

// orbitFilter is the post-filter machine: it keys every emitted
// triangulation by its Aut(G)-orbit canonical form, suppresses non-first
// orbit members, and stamps representatives with their orbit size
// |Aut(G)| / |Stab(H)| (orbit-stabilizer; the stabilizer order falls out
// of the same canonical search that produces the key).
type orbitFilter struct {
	inner       *Enumerator
	g           *graph.Graph
	order       *big.Int // |Aut(G)|; nil in passthrough mode
	counters    *OrbitCounters
	seen        map[string]struct{}
	passthrough bool
}

func (f *orbitFilter) Next() (*Result, bool) {
	for {
		r, ok := f.inner.Next()
		if !ok {
			return nil, false
		}
		if f.passthrough {
			return stampOrbit(r, 1), true
		}
		key, stab, exact := resultOrbitKey(f.g, r.H)
		if !exact {
			// Key search blew its budget: emit unreduced (OrbitSize 1,
			// not recorded) rather than risk suppressing a whole orbit.
			f.counters.InexactResultKeys.Add(1)
			return stampOrbit(r, 1), true
		}
		if _, dup := f.seen[key]; dup {
			f.counters.SkippedResults.Add(1)
			continue
		}
		f.seen[key] = struct{}{}
		f.counters.Representatives.Add(1)
		return stampOrbit(r, orbitSize(f.order, stab.Order())), true
	}
}

// stampOrbit returns a shallow copy of r with OrbitSize set. The copy
// matters: results may be shared through the serving tier's stream cache,
// and the same solver-produced Result must not be mutated under a reader.
func stampOrbit(r *Result, size int64) *Result {
	out := *r
	out.OrbitSize = size
	return &out
}

// orbitSize computes |orbit| = |Aut(G)| / |Stab(H)| (exact by Lagrange),
// saturating at MaxInt64 for astronomically symmetric inputs.
func orbitSize(autOrder, stabOrder *big.Int) int64 {
	q := new(big.Int).Quo(autOrder, stabOrder)
	if !q.IsInt64() {
		return math.MaxInt64
	}
	return q.Int64()
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
