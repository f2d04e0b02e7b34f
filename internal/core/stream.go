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
// the enumerator concurrently, and no demand-independent goroutine exists
// by default — an abandoned stream burns no CPU by construction.
//
// ConfigurePrefetch arms an optional speculative producer: a background
// goroutine, started lazily by the first At, that keeps the buffer ahead
// of the fastest consumer up to a lookahead budget in ranks and bytes. It
// joins the same per-rank singleflight (so demand and speculation never
// drive the enumerator concurrently) and works only while demand exists
// and PausePrefetch has not parked it — the owner is expected to pause it
// whenever the stream has no live consumers, preserving the no-CPU
// invariant for abandoned streams.
//
// Reset discards the buffer and the enumerator. The next At rebuilds both
// from the factory and replays the identical prefix (determinism is
// asserted in tests), which is what lets a byte-budget cache evict a
// stream's buffer without invalidating the cursors reading it. Reset also
// clears the demand mark, so an evicted stream stays cold — the
// prefetcher never re-materializes a buffer nobody asked for again.
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

	// Speculative prefetch state (all under mu except pfWake's buffer).
	pfAhead   int           // lookahead budget in ranks; 0 = prefetch disabled
	pfBytes   int64         // buffer-footprint ceiling for speculation; <= 0 = none
	pfDemand  int           // demand high-water mark: max requested rank + 1, this generation
	pfPaused  bool          // no live consumers; the producer parks
	pfStopped bool          // terminal: the prefetch goroutine exits and never restarts
	pfRunning bool          // the prefetch goroutine is live
	pfWake    chan struct{} // capacity 1; nudges the prefetcher to re-check its condition
	pfStats   PrefetchStats
}

// PrefetchStats is a snapshot of one stream's demand-vs-speculation
// counters (see SharedStream.PrefetchStats).
type PrefetchStats struct {
	// Hits counts At calls whose rank was already materialized when they
	// arrived — pure buffer reads, no solving on the caller's latency path.
	Hits uint64 `json:"hits"`
	// DemandSolves counts enumerator Next calls driven by a waiting At
	// caller; PrefetchSolves counts those driven by the speculative
	// producer. Their sum is the total production work.
	DemandSolves   uint64 `json:"demand_solves"`
	PrefetchSolves uint64 `json:"prefetch_solves"`
	// Pauses and Resumes count PausePrefetch/ResumePrefetch transitions.
	Pauses  uint64 `json:"pauses"`
	Resumes uint64 `json:"resumes"`
	// LookaheadHighWater is the most ranks the producer has ever been
	// ahead of the demand mark.
	LookaheadHighWater int `json:"lookahead_high_water"`
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
		pfWake:   make(chan struct{}, 1),
	}
}

// ConfigurePrefetch arms the speculative producer: once a consumer has
// demanded a rank, a background goroutine keeps producing until the
// buffer reaches ahead ranks past the fastest consumer's demand mark or
// its footprint reaches maxBytes (<= 0 for no byte ceiling). ahead <= 0
// leaves prefetching disabled. Configure before the first At; the
// goroutine itself starts lazily on first demand and joins the per-rank
// singleflight, so enabling prefetch never changes the emitted sequence —
// only who pays the solve latency.
func (st *SharedStream) ConfigurePrefetch(ahead int, maxBytes int64) {
	st.mu.Lock()
	st.pfAhead = ahead
	st.pfBytes = maxBytes
	st.mu.Unlock()
	st.wakePrefetch()
}

// PausePrefetch parks the speculative producer (an in-flight solve
// completes and commits first). The stream's owner calls this when the
// last live consumer goes away, so abandoned streams burn no CPU.
// Demand-driven production through At is unaffected.
func (st *SharedStream) PausePrefetch() {
	st.mu.Lock()
	if !st.pfPaused {
		st.pfPaused = true
		if st.pfAhead > 0 {
			st.pfStats.Pauses++
		}
	}
	st.mu.Unlock()
	st.wakePrefetch()
}

// ResumePrefetch reverses PausePrefetch when a consumer re-attaches.
func (st *SharedStream) ResumePrefetch() {
	st.mu.Lock()
	if st.pfPaused {
		st.pfPaused = false
		if st.pfAhead > 0 {
			st.pfStats.Resumes++
		}
	}
	st.mu.Unlock()
	st.wakePrefetch()
}

// StopPrefetch terminates the speculative producer for good — the
// goroutine (if any) exits after at most one in-flight solve and never
// restarts. For streams leaving their owner's table entirely; a merely
// idle stream wants PausePrefetch. Idempotent, and At keeps working
// (demand-driven) afterwards.
func (st *SharedStream) StopPrefetch() {
	st.mu.Lock()
	st.pfStopped = true
	st.mu.Unlock()
	st.wakePrefetch()
}

// PrefetchStats snapshots the demand-vs-speculation counters.
func (st *SharedStream) PrefetchStats() PrefetchStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pfStats
}

// wakePrefetch nudges the prefetch goroutine to re-examine its condition.
// The channel holds one pending wake; further signals coalesce.
func (st *SharedStream) wakePrefetch() {
	select {
	case st.pfWake <- struct{}{}:
	default:
	}
}

// noteDemandLocked raises the demand high-water mark to cover rank i and
// lazily starts the prefetch goroutine ("started on first demand"). The
// caller holds st.mu.
func (st *SharedStream) noteDemandLocked(i int) {
	if i+1 > st.pfDemand {
		st.pfDemand = i + 1
		st.wakePrefetch()
	}
	if st.pfAhead > 0 && !st.pfRunning && !st.pfStopped {
		st.pfRunning = true
		go st.prefetchLoop()
	}
}

// prefetchWantLocked reports whether the speculative producer should
// produce the next rank. The caller holds st.mu.
func (st *SharedStream) prefetchWantLocked() bool {
	if st.pfAhead <= 0 || st.pfPaused || st.pfStopped || st.exhausted {
		return false
	}
	if st.pfDemand == 0 {
		// No demand this generation: stay cold. After an eviction Reset
		// this is what keeps the reclaimed bytes reclaimed.
		return false
	}
	if st.base+len(st.buf) >= st.pfDemand+st.pfAhead {
		return false
	}
	return st.pfBytes <= 0 || st.bytes < st.pfBytes
}

// prefetchLoop is the speculative producer. It produces through the same
// produceLocked step as At — one Next in flight stream-wide, stale
// generations dropped — so speculation is invisible in the emitted
// sequence and safe against concurrent Reset, TrimOver and
// eviction-rebuild.
func (st *SharedStream) prefetchLoop() {
	for {
		st.mu.Lock()
		for {
			if st.pfStopped {
				st.pfRunning = false
				st.mu.Unlock()
				return
			}
			if st.prefetchWantLocked() {
				if !st.producing {
					break
				}
				// A demand caller is mid-solve; wake when it commits so the
				// producer role can be taken over without a demand gap.
				ch := st.advanced
				st.mu.Unlock()
				select {
				case <-ch:
				case <-st.pfWake:
				}
			} else {
				st.mu.Unlock()
				<-st.pfWake
			}
			st.mu.Lock()
		}
		st.produceLocked(true)
	}
}

// produceLocked is the one production step shared by At and the
// prefetcher: it builds the enumerator on demand, calls Next outside the
// lock, commits the result unless a Reset bumped the generation
// meanwhile, and wakes every waiter. The caller holds st.mu with no
// producer in flight; produceLocked returns with it released. A demand
// commit counts DemandSolves, a speculative one PrefetchSolves and the
// lookahead high-water mark.
func (st *SharedStream) produceLocked(speculative bool) {
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
			if speculative {
				st.pfStats.PrefetchSolves++
				if lead := st.base + len(st.buf) - st.pfDemand; lead > st.pfStats.LookaheadHighWater {
					st.pfStats.LookaheadHighWater = lead
				}
			} else {
				st.pfStats.DemandSolves++
			}
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
		// Every pass re-raises the demand mark: a rebuild (below) clears
		// it, and the prefetcher should help replay the prefix too.
		st.noteDemandLocked(i)
		if first {
			first = false
			if i >= st.base && i-st.base < len(st.buf) {
				st.pfStats.Hits++
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
		st.produceLocked(false)
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
	// The demand mark dies with the buffer: an evicted stream must stay
	// cold until a cursor actually asks again, or eviction would reclaim
	// nothing. At re-raises it on every pass, so live readers re-arm the
	// prefetcher for the replay automatically.
	st.pfDemand = 0
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
		// Dropping bytes may reopen the speculative byte budget.
		st.wakePrefetch()
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

// Exhausted reports whether the enumeration has been driven to its end
// (every result is in the buffer). False after a Reset until the rebuild
// reaches the end again.
func (st *SharedStream) Exhausted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.exhausted
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
