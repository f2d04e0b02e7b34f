package core

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

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
// first-of-orbit subsequence of the unreduced one. The filter never runs
// a canonical search: it closes each new orbit once under Aut(G)'s
// generators and recognises every later member by one map lookup.
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

	// InexactResultKeys counts results emitted unreduced (OrbitSize 1)
	// because an orbit closure hit its bound: the result whose closure
	// overflowed, and every later result not already pending, since the
	// enumeration closes no more orbits after an overflow.
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
// the service's /v1/stats payload. On an enumeration that reduces (exact,
// nontrivial group) every inner result counts once in Representatives,
// SkippedResults or InexactResultKeys. SkippedBranches always reads 0:
// orbit mode prunes no Lawler–Murty branches, and the field remains only
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

	// closureBudget bounds each orbit closure and the pending set; 0
	// selects graph.DefaultCanonBudget. Tests starve it to reach the
	// degraded path.
	closureBudget int
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

// Aut returns the automorphism group the backend reduces under, computing
// it on first use.
func (b *orbitBackend) Aut() *graph.AutGroup {
	b.once.Do(func() { b.aut = b.inner.Graph().Automorphisms() })
	return b.aut
}

func (b *orbitBackend) EnumerateContext(ctx context.Context) *Enumerator {
	aut := b.Aut()
	b.counters.Enumerations.Add(1)
	if o := aut.Order(); o.IsUint64() {
		b.counters.noteGroupOrder(o.Uint64())
	} else {
		b.counters.noteGroupOrder(math.MaxUint64)
	}
	f := &orbitFilter{counters: b.counters}
	switch {
	case !aut.Exact():
		// Degraded mode: the generators found are genuine but may not
		// generate all of Aut(G), so the orbits they close (and their
		// sizes) may be too small. Pass everything through with OrbitSize
		// 1 — Σ orbit sizes still equals the unreduced length, just
		// without reduction.
		b.counters.InexactGroups.Add(1)
	case aut.IsTrivial():
		// Every orbit is a singleton: skip the per-result keying
		// entirely. This is what keeps orbit mode near-free on asymmetric
		// inputs — one automorphism search at enumeration start, then a
		// plain passthrough.
		b.counters.TrivialGroups.Add(1)
	default:
		budget := b.closureBudget
		if budget <= 0 {
			budget = graph.DefaultCanonBudget
		}
		f.keys = newOrbitKeys(b.inner.Graph(), aut, budget)
	}
	f.inner = b.inner.EnumerateContext(ctx)
	return &Enumerator{m: f}
}

// orbitFilter is the post-filter machine. A result whose key is pending
// is a later member of an orbit already emitted and is suppressed; any
// other result is the first member of its orbit, so the filter closes its
// key under the generators, marks every other image pending and stamps
// the result with the number of distinct images. The generators of an
// exact group generate all of Aut(G), so that number is the orbit size
// |Aut(G)| / |Stab(H)|. Only the stream's single producer calls Next, so
// the filter takes no locks.
type orbitFilter struct {
	inner    *Enumerator
	counters *OrbitCounters
	keys     *orbitKeys // nil in passthrough mode and once inner is exhausted
}

func (f *orbitFilter) Next() (*Result, bool) {
	for {
		r, ok := f.inner.Next()
		if !ok {
			// Release the keys: the serving tier's stream cache keeps the
			// enumerator of an exhausted stream.
			f.keys = nil
			return nil, false
		}
		k := f.keys
		if k == nil {
			return stampOrbit(r, 1), true
		}
		k.setKey(r.H)
		if _, later := k.pending[string(k.key)]; later {
			delete(k.pending, string(k.key))
			f.counters.SkippedResults.Add(1)
			continue
		}
		if !k.full {
			if orbit := k.closeOrbit(string(k.key)); orbit != nil {
				for _, img := range orbit[1:] {
					k.pending[img] = struct{}{}
				}
				f.counters.Representatives.Add(1)
				return stampOrbit(r, int64(len(orbit))), true
			}
			// Overflow. Keys already pending still suppress their orbits'
			// members; every other result now passes unreduced, which
			// keeps Σ OrbitSize equal to the unreduced length.
			k.full = true
		}
		f.counters.InexactResultKeys.Add(1)
		return stampOrbit(r, 1), true
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

// orbitKeys is the filter's keying state for one enumeration. The key of
// a triangulation H is its edge set as a bitset over G's active-vertex
// pairs — bit i(i-1)/2 + j for active indices j < i — so it is exact and
// label-sensitive: equal keys mean equal triangulations, and an
// automorphism maps a key to another by permuting its pairs.
type orbitKeys struct {
	verts []int      // active index -> universe vertex
	pairs [][2]int32 // bit -> its pair (i, j), j < i
	gens  [][]int    // Aut(G)'s generators in active-index space

	// budget bounds the distinct images of one closure and the pending
	// set's size; full records that a closure overflowed.
	budget  int
	pending map[string]struct{} // unemitted members of emitted orbits
	full    bool

	key, img []byte // reused bitset buffers
}

func newOrbitKeys(g *graph.Graph, aut *graph.AutGroup, budget int) *orbitKeys {
	verts := g.Vertices().Slice()
	index := make([]int, g.Universe())
	for v := range index {
		index[v] = -1
	}
	for i, v := range verts {
		index[v] = i
	}
	k := len(verts)
	pairs := make([][2]int32, 0, k*(k-1)/2)
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	gens := make([][]int, len(aut.Generators()))
	for gi, p := range aut.Generators() {
		gens[gi] = make([]int, k)
		for i, v := range verts {
			gens[gi][i] = index[p[v]]
		}
	}
	n := (len(pairs) + 7) / 8
	return &orbitKeys{
		verts:   verts,
		pairs:   pairs,
		gens:    gens,
		budget:  budget,
		pending: make(map[string]struct{}),
		key:     make([]byte, n),
		img:     make([]byte, n),
	}
}

// setKey writes h's key into k.key.
func (k *orbitKeys) setKey(h *graph.Graph) {
	clear(k.key)
	for b, pr := range k.pairs {
		if h.HasEdge(k.verts[pr[0]], k.verts[pr[1]]) {
			k.key[b/8] |= 1 << (b % 8)
		}
	}
}

// closeOrbit returns the keys of key's orbit under the generators, key
// first, or nil when the orbit has more than budget members or would push
// the pending set past budget. It maps at most budget keys through at
// most log2|Aut(G)| generators each, so it needs no context check.
func (k *orbitKeys) closeOrbit(key string) []string {
	orbit := []string{key}
	seen := map[string]struct{}{key: {}}
	for next := 0; next < len(orbit); next++ {
		for _, p := range k.gens {
			k.image(orbit[next], p)
			if _, ok := seen[string(k.img)]; ok {
				continue
			}
			if len(orbit) == k.budget {
				return nil
			}
			img := string(k.img)
			seen[img] = struct{}{}
			orbit = append(orbit, img)
		}
	}
	if len(k.pending)+len(orbit)-1 > k.budget {
		return nil
	}
	return orbit
}

// image writes the image of key under the active-index permutation p
// into k.img.
func (k *orbitKeys) image(key string, p []int) {
	clear(k.img)
	for b := 0; b < len(key); b++ {
		for w := key[b]; w != 0; w &= w - 1 {
			pr := k.pairs[8*b+bits.TrailingZeros8(w)]
			i, j := p[pr[0]], p[pr[1]]
			if i < j {
				i, j = j, i
			}
			setPairBit(k.img, i, j)
		}
	}
}

// setPairBit sets the bit of the active-index pair (i, j), j < i.
func setPairBit(set []byte, i, j int) {
	b := i*(i-1)/2 + j
	set[b/8] |= 1 << (b % 8)
}
