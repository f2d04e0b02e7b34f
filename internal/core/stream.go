package core

import (
	"context"
	"sync"
)

// SharedStream is a thread-safe, position-addressable view over an
// Enumerator: an append-only buffer of results indexed by rank, filled
// lazily by whichever caller first asks for a rank past the buffered
// prefix. The enumeration order of a Solver is deterministic, so the
// buffer's prefix is a pure function of the solver — many consumers at
// different positions can share one stream, and the total enumeration
// work is that of a single enumerator regardless of the consumer count.
//
// Production is singleflighted per rank: the first caller to request an
// unbuffered rank drives the underlying Enumerator's Next for exactly one
// result while every other caller waits on the buffer; nobody ever drives
// the enumerator concurrently, and the stream owns no goroutine — an
// abandoned stream burns no CPU by construction.
//
// Reset discards the buffer and the enumerator. The next At rebuilds both
// from the factory and replays the identical prefix (determinism is
// asserted in tests), which is what lets a byte-budget cache evict a
// stream's buffer without invalidating the cursors reading it.
type SharedStream struct {
	factory func() *Enumerator

	mu        sync.Mutex
	enum      *Enumerator // nil until first demand and after Reset
	gen       uint64      // bumped by Reset; stale producers discard their result
	buf       []*Result   // buffered window; buf[0] is rank base
	base      int         // rank of buf[0]; > 0 once TrimOver slid the window
	bytes     int64
	exhausted bool
	producing bool
	rebuilds  uint64
	advanced  chan struct{} // closed and replaced whenever buf/exhausted change
	stats     PrefetchStats
}

// PrefetchStats is a snapshot of one stream's buffer-read vs solve
// counters (see SharedStream.PrefetchStats), named after the /v1/stats
// "prefetch" block they feed.
type PrefetchStats struct {
	// Hits counts At calls whose rank was already materialized when they
	// arrived — pure buffer reads, no solving on the caller's latency path.
	Hits uint64 `json:"hits"`
	// DemandSolves counts enumerator Next calls driven by a waiting At
	// caller — all of the stream's production work.
	DemandSolves uint64 `json:"demand_solves"`
}

// NewSharedStream returns a stream over the enumerator the factory builds.
// The factory is invoked lazily on first demand and again after each
// Reset; it must return a fresh enumerator producing the same sequence
// every time (any Solver enumeration does — the order is deterministic).
// The enumerator should be built on a background context: one consumer's
// cancellation must not poison the shared buffer, and At already observes
// the caller's context while waiting.
func NewSharedStream(factory func() *Enumerator) *SharedStream {
	return &SharedStream{
		factory:  factory,
		advanced: make(chan struct{}),
	}
}

// PrefetchStats snapshots the buffer-read vs solve counters.
func (st *SharedStream) PrefetchStats() PrefetchStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// produceLocked is At's production step: it builds the enumerator on
// demand, calls Next outside the lock, commits the result unless a Reset
// bumped the generation meanwhile, and wakes every waiter. The caller
// holds st.mu with no producer in flight; produceLocked returns with it
// released.
func (st *SharedStream) produceLocked() {
	if st.enum == nil {
		if st.gen > 0 {
			st.rebuilds++
		}
		st.enum = st.factory()
	}
	st.producing = true
	gen, enum := st.gen, st.enum
	st.mu.Unlock()

	r, ok := enum.Next()

	st.mu.Lock()
	// On a stale generation the result is simply dropped: Reset already
	// cleared the producing flag, and a new producer may be mid-flight on
	// the rebuilt enumerator.
	if st.gen == gen {
		st.producing = false
		if !ok {
			st.exhausted = true
		} else {
			st.buf = append(st.buf, r)
			st.bytes += r.SizeEstimate()
			st.stats.DemandSolves++
		}
	}
	ch := st.advanced
	st.advanced = make(chan struct{})
	st.mu.Unlock()
	close(ch)
}

// At returns the result of rank i (0-based), producing and buffering
// every rank up to i on demand. ok=false reports that the enumeration is
// exhausted before rank i. A caller that waits — for another producer, or
// while driving production itself across multiple ranks — observes ctx;
// note one in-flight Next is never abandoned mid-solve, so cancellation
// latency is bounded by the enumeration delay, and the completed result
// still lands in the buffer for other consumers.
func (st *SharedStream) At(ctx context.Context, i int) (*Result, bool, error) {
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		st.mu.Lock()
		if first {
			first = false
			if i >= st.base && i-st.base < len(st.buf) {
				st.stats.Hits++
			}
		}
		if i < st.base {
			// The trim window slid past rank i; rebuild from rank 0 and
			// replay (deterministically) up to it.
			ch := st.resetLocked()
			st.mu.Unlock()
			close(ch)
			continue
		}
		if i-st.base < len(st.buf) {
			r := st.buf[i-st.base]
			st.mu.Unlock()
			return r, true, nil
		}
		if st.exhausted {
			st.mu.Unlock()
			return nil, false, nil
		}
		if st.producing {
			ch := st.advanced
			st.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			continue
		}
		st.produceLocked()
	}
}

// Reset discards the buffer and the underlying enumerator; the next At
// rebuilds from the factory and replays the identical prefix. Safe to
// call concurrently with At: an in-flight Next from before the reset
// discards its result when it completes.
func (st *SharedStream) Reset() {
	st.mu.Lock()
	ch := st.resetLocked()
	st.mu.Unlock()
	close(ch)
}

// resetLocked clears all production state under st.mu and returns the
// advanced channel for the caller to close after unlocking.
func (st *SharedStream) resetLocked() chan struct{} {
	st.gen++
	st.enum = nil
	st.buf = nil
	st.base = 0
	st.bytes = 0
	st.exhausted = false
	st.producing = false
	ch := st.advanced
	st.advanced = make(chan struct{})
	return ch
}

// TrimOver slides the buffer window forward: it drops buffered ranks
// below the given rank, oldest first, until the window's estimated
// footprint is at most maxBytes. Production state (enumerator position,
// exhaustion) is untouched, so consumers ahead of the window continue
// for free; a consumer later asking for a dropped rank triggers a full
// deterministic rebuild. This is how a byte-budget cache bounds a single
// stream that is itself larger than the budget.
func (st *SharedStream) TrimOver(maxBytes int64, below int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	limit := below - st.base
	if limit > len(st.buf) {
		limit = len(st.buf)
	}
	k := 0
	for k < limit && st.bytes > maxBytes {
		st.bytes -= st.buf[k].SizeEstimate()
		k++
	}
	if k > 0 {
		st.buf = append([]*Result(nil), st.buf[k:]...)
		st.base += k
	}
}

// Buffered returns how many ranks are currently materialized (the
// window size — after a TrimOver this is less than Produced).
func (st *SharedStream) Buffered() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.buf)
}

// Produced returns the production high-water mark: ranks [0, Produced)
// have been enumerated, though ranks below the trim window would need a
// rebuild to read again.
func (st *SharedStream) Produced() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.base + len(st.buf)
}

// Bytes returns the estimated in-memory footprint of the buffer (the sum
// of the buffered results' SizeEstimates).
func (st *SharedStream) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// Rebuilds returns how many times a Reset stream has been rebuilt from
// its factory.
func (st *SharedStream) Rebuilds() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rebuilds
}

// SizeEstimate returns a rough, deterministic estimate of the result's
// in-memory footprint in bytes, for byte-budget caches of buffered
// results. It counts the dominant word-slice storage of the vertex sets
// (bags, separators, the triangulated graph's adjacency rows) plus fixed
// per-object overheads; pointer sharing between the clique tree's bags
// and Bags is assumed (buildResult aliases them), so the tree contributes
// only its adjacency lists.
func (r *Result) SizeEstimate() int64 {
	const (
		setOverhead = 32 // slice header + universe field + allocator slack
		objOverhead = 256
	)
	n := 0
	if r.H != nil {
		n = r.H.Universe()
	} else if len(r.Bags) > 0 {
		n = r.Bags[0].Universe()
	}
	wordsPer := int64((n+63)/64*8) + setOverhead
	size := int64(objOverhead)
	size += int64(len(r.Bags)+len(r.Seps)) * wordsPer
	size += int64(len(r.sepIDs)) * 8
	if r.H != nil {
		size += int64(n+1) * wordsPer // adjacency rows + active vertex set
	}
	if r.Tree != nil {
		for _, adj := range r.Tree.Adj {
			size += int64(len(adj)) * 8
		}
	}
	return size
}
