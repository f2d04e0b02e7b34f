package core

import (
	"context"
	"encoding/binary"
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
// emits exactly one representative per orbit, stamps it with the orbit
// size (so consumers can reconstruct full counts: Σ OrbitSize over the
// reduced stream equals the unreduced stream length), and — on the
// monolithic ranked DP — additionally prunes Lawler–Murty branches whose
// constraint set is Aut(G)-equivalent to one already explored, cutting
// the constrained solves themselves, not just the emitted results.
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
	// already-emitted representative; SkippedBranches counts Lawler–Murty
	// branches pruned before their constrained solve.
	Representatives atomic.Uint64
	SkippedResults  atomic.Uint64
	SkippedBranches atomic.Uint64

	// InexactResultKeys / InexactBranchKeys count canonical-key searches
	// that blew their budget: the result (resp. branch) was then admitted
	// unreduced rather than risking an unsound skip.
	InexactResultKeys atomic.Uint64
	InexactBranchKeys atomic.Uint64

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
// the service's /v1/stats payload.
type OrbitStats struct {
	Enumerations      uint64 `json:"enumerations"`
	TrivialGroups     uint64 `json:"trivial_groups"`
	InexactGroups     uint64 `json:"inexact_groups"`
	Representatives   uint64 `json:"representatives"`
	SkippedResults    uint64 `json:"skipped_results"`
	SkippedBranches   uint64 `json:"skipped_branches"`
	InexactResultKeys uint64 `json:"inexact_result_keys"`
	InexactBranchKeys uint64 `json:"inexact_branch_keys"`
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
		SkippedBranches:   c.SkippedBranches.Load(),
		InexactResultKeys: c.InexactResultKeys.Load(),
		InexactBranchKeys: c.InexactBranchKeys.Load(),
		MaxGroupOrder:     c.maxGroupOrder.Load(),
	}
}

// orbitBackend wraps any Backend with the orbit post-filter, and — when
// the inner backend is a monolithic ranked DP solver — installs the
// branch pruner on its Lawler–Murty enumerator.
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
	inner := b.inner.EnumerateParallelContext(ctx, workers)
	if !f.passthrough && inner.lm != nil {
		// Monolithic ranked DP: also skip Aut(G)-equivalent Lawler–Murty
		// branches before they spawn constrained solves. Sound only
		// because the post-filter above still runs — see DESIGN.md for
		// the induction; decomposed and MIS streams get post-filter only.
		if s, ok := b.inner.(*Solver); ok && s.dec == nil {
			inner.lm.pruner = newOrbitPruner(s, b.counters)
		}
	}
	f.inner = inner
	return &Enumerator{ext: f}
}

// orbitFilter is the post-filter extMachine: it keys every emitted
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

// orbitPruner skips Lawler–Murty branches whose constraint set [I, X] is
// Aut(G)-equivalent to one already admitted. Equivalence is decided by a
// gadget canonical form: G plus one fresh node per constraint separator
// (adjacent to exactly its members), canonicalized under the partition
// [graph vertices, include nodes, exclude nodes]. Keys are recorded at
// admit time — before the branch is solved, and even if it then proves
// unsolvable — which is what the soundness induction in DESIGN.md
// requires. A pruned branch's region is the γ-image of its admitted
// twin's region, so every orbit retains a reachable member and the
// downstream post-filter still emits exactly one representative each.
type orbitPruner struct {
	s        *Solver
	counters *OrbitCounters
	seen     map[string]struct{}
	verts    []int       // active vertices of G, ascending
	idx      map[int]int // vertex label -> gadget index
	vcell    []int       // the graph-layer cell, reused across admits
}

func newOrbitPruner(s *Solver, counters *OrbitCounters) *orbitPruner {
	verts := s.g.Vertices().Slice()
	idx := make(map[int]int, len(verts))
	vcell := make([]int, len(verts))
	for i, v := range verts {
		idx[v] = i
		vcell[i] = i
	}
	return &orbitPruner{
		s:        s,
		counters: counters,
		seen:     make(map[string]struct{}),
		verts:    verts,
		idx:      idx,
		vcell:    vcell,
	}
}

// admit reports whether the branch carrying cc should be solved. It
// returns true (and records the key) for the first branch of each
// constraint-set orbit, true without recording when the set cannot be
// keyed exactly, and false for recognized repeats.
func (p *orbitPruner) admit(cc *compiledConstraints) bool {
	k := len(p.verts)
	m := len(cc.cons)
	l := graph.New(k + m)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if p.s.g.HasEdge(p.verts[i], p.verts[j]) {
				l.AddEdge(i, j)
			}
		}
	}
	var icell, xcell []int
	for t := range cc.cons {
		info := &cc.cons[t]
		if info.sepID < 0 {
			// A non-interned constraint separator (possible only through
			// the public API, never on the enumerator's own branches) has
			// no set to rebuild the gadget from here; admit unkeyed.
			return true
		}
		node := k + t
		p.s.seps[info.sepID].ForEach(func(v int) bool {
			l.AddEdge(node, p.idx[v])
			return true
		})
		if info.include {
			icell = append(icell, node)
		} else {
			xcell = append(xcell, node)
		}
	}
	key, _, exact := l.CanonicalKeyCells([][]int{p.vcell, icell, xcell}, 0)
	if !exact {
		p.counters.InexactBranchKeys.Add(1)
		return true
	}
	// CanonicalKeyCells drops empty cells from its size signature, so
	// ([V], I, ∅) and ([V], ∅, X) shapes could alias; prefix the cell
	// split explicitly.
	var pre [16]byte
	binary.LittleEndian.PutUint64(pre[:8], uint64(len(icell)))
	binary.LittleEndian.PutUint64(pre[8:], uint64(len(xcell)))
	key = string(pre[:]) + key
	if _, dup := p.seen[key]; dup {
		p.counters.SkippedBranches.Add(1)
		return false
	}
	p.seen[key] = struct{}{}
	return true
}
