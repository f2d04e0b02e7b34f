package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/core"
)

// SolverKey identifies one initialized enumeration engine: the canonical
// fingerprint of the submitted graph (graph.Fingerprint), the canonical
// cost key (see buildCost), the width bound (-1 for unbounded) and the
// backend kind serving it. Two requests with equal keys are served by the
// same engine — for the DP backend, initialization (minimal separators,
// PMCs, full blocks) dominates request latency, so this is the cache that
// matters. The Backend field keeps the shared ranked-stream cache honest:
// a DP stream and a MIS stream over one (graph, cost, bound) produce
// different sequences, so their keys must never alias. The solver pool
// itself only ever holds DP solvers (the MIS backends are O(1) to build
// and are not pooled), so its keys all carry Backend == "dp".
//
// Orbits marks an orbit-reduced stream (core.NewOrbitBackend): the
// reduced sequence is a strict subsequence of the unreduced one, so the
// two must never share a stream-cache entry. The solver pool never sets
// it — the pooled DP solver is identical either way and is shared across
// both modes; all orbit state lives in the per-request wrapper.
type SolverKey struct {
	Fingerprint string
	Cost        string
	Bound       int
	Backend     string
	Orbits      bool
}

// PoolStats is a snapshot of SolverPool counters.
type PoolStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Inflight  int    `json:"inflight"`
}

// poolEntry is one cached or in-flight solver. ready is closed once
// solver/err are set; entries enter the LRU list only on success.
type poolEntry struct {
	key     SolverKey
	ready   chan struct{}
	solver  *core.Solver
	err     error
	waiters int
	cancel  context.CancelFunc
	elem    *list.Element
}

// SolverPool deduplicates and LRU-caches solver initializations.
// Concurrent Gets for the same key join a single build; when every waiter
// of an in-flight build cancels, the build context is cancelled and the
// initialization work stops (core.New observes it). Failed builds are
// not cached.
type SolverPool struct {
	mu      sync.Mutex
	cap     int
	entries map[SolverKey]*poolEntry
	lru     *list.List // of *poolEntry; front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

// NewSolverPool returns a pool caching up to capacity solvers.
func NewSolverPool(capacity int) *SolverPool {
	if capacity < 1 {
		capacity = 1
	}
	return &SolverPool{
		cap:     capacity,
		entries: make(map[SolverKey]*poolEntry),
		lru:     list.New(),
	}
}

// Get returns the solver for key, building it with build on a miss. The
// returned hit flag reports whether the call was served without starting
// a new initialization (a cached solver or joining an in-flight build).
// ctx cancels only this caller's wait; the build itself is cancelled when
// its last waiter is gone.
func (p *SolverPool) Get(ctx context.Context, key SolverKey, build func(context.Context) (*core.Solver, error)) (*core.Solver, bool, error) {
	for {
		p.mu.Lock()
		if e, ok := p.entries[key]; ok {
			e.waiters++
			if e.elem != nil {
				p.lru.MoveToFront(e.elem)
			}
			p.hits++
			p.mu.Unlock()
			s, err := p.wait(ctx, e)
			if err != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) {
				// The build we joined was abandoned by its other waiters
				// before we arrived; it is already removed from the map,
				// so retry with a fresh build.
				continue
			}
			return s, true, err
		}
		bctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		e := &poolEntry{key: key, ready: make(chan struct{}), waiters: 1, cancel: cancel}
		p.entries[key] = e
		p.misses++
		p.mu.Unlock()

		go func() {
			s, err := build(bctx)
			if s == nil && err == nil {
				err = errors.New("service: solver build returned nil")
			}
			p.mu.Lock()
			e.solver, e.err = s, err
			if err != nil {
				if p.entries[key] == e {
					delete(p.entries, key)
				}
			} else if cur, ok := p.entries[key]; !ok || cur == e {
				// Re-insert if the entry was abandoned (and removed) while
				// the build raced its own cancellation to success; drop the
				// solver when a newer build already owns the key.
				p.entries[key] = e
				e.elem = p.lru.PushFront(e)
				p.evictLocked()
			}
			close(e.ready)
			p.mu.Unlock()
		}()
		s, err := p.wait(ctx, e)
		return s, false, err
	}
}

// wait blocks until e is ready or ctx is done. When the last waiter of an
// unfinished build leaves, the build is cancelled and the entry removed so
// later Gets rebuild.
func (p *SolverPool) wait(ctx context.Context, e *poolEntry) (*core.Solver, error) {
	select {
	case <-e.ready:
		p.mu.Lock()
		e.waiters--
		p.mu.Unlock()
		return e.solver, e.err
	case <-ctx.Done():
		p.mu.Lock()
		e.waiters--
		select {
		case <-e.ready:
			// Finished while we were giving up; leave it cached.
		default:
			if e.waiters == 0 {
				e.cancel()
				if p.entries[e.key] == e {
					delete(p.entries, e.key)
				}
			}
		}
		p.mu.Unlock()
		return nil, ctx.Err()
	}
}

// evictLocked trims the LRU cache to capacity. In-flight builds live only
// in the map and are never evicted. Solvers still referenced by live
// sessions survive eviction — the pool drops its reference, nothing more.
func (p *SolverPool) evictLocked() {
	for p.lru.Len() > p.cap {
		back := p.lru.Back()
		e := back.Value.(*poolEntry)
		p.lru.Remove(back)
		delete(p.entries, e.key)
		p.evicted++
	}
}

// ReuseStats sums the incremental-DP counters (constrained solves, dirty
// vs baseline-reused blocks, empty solves and branches proven empty) over
// the currently cached solvers. Counters
// of evicted solvers leave the sum; the ratio is still the right signal
// for how much of the enumeration load the incremental path absorbs.
func (p *SolverPool) ReuseStats() core.ReuseStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total core.ReuseStats
	for e := p.lru.Front(); e != nil; e = e.Next() {
		total.Add(e.Value.(*poolEntry).solver.ReuseStats())
	}
	return total
}

// AtomStats aggregates the atom decompositions of the currently cached
// solvers (see the type's doc in types.go).
func (p *SolverPool) AtomStats() AtomStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out AtomStats
	for e := p.lru.Front(); e != nil; e = e.Next() {
		dec := e.Value.(*poolEntry).solver.Atoms()
		if dec == nil {
			continue
		}
		out.DecomposedSolvers++
		out.TotalAtoms += dec.Count()
		out.LargestAtom = max(out.LargestAtom, dec.LargestAtom())
	}
	return out
}

// Stats returns a snapshot of the pool counters.
func (p *SolverPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evicted,
		Size:      p.lru.Len(),
		Inflight:  len(p.entries) - p.lru.Len(),
	}
}

// Len returns the number of cached (ready) solvers.
func (p *SolverPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
