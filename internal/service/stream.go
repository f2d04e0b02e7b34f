package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// defaultStreamBudget is the byte budget for materialized stream buffers
// when Config.StreamBudgetBytes is unset.
const defaultStreamBudget = 64 << 20

// defaultMaxStreams caps the number of stream entries when the caller
// does not choose one. Each entry pins its solver through the rebuild
// factory, so the byte budget alone (which only counts buffered results)
// would not bound the store's true footprint across many distinct
// graphs.
const defaultMaxStreams = 256

// StreamStats is a snapshot of StreamStore counters for /v1/stats.
type StreamStats struct {
	// Streams is the number of materialized streams currently held.
	Streams int `json:"streams"`
	// Cursors is the number of live references (sessions + NDJSON
	// streams) across those streams.
	Cursors int `json:"cursors"`
	// BufferedResults and Bytes describe the materialized buffers: total
	// ranks held and their estimated footprint against the byte budget.
	BufferedResults int   `json:"buffered_results"`
	Bytes           int64 `json:"bytes"`
	BudgetBytes     int64 `json:"budget_bytes"`
	// Hits and Misses count Acquire calls that found (vs created) a
	// stream for their key. A hit means the new consumer rides an
	// existing buffer instead of its own enumerator.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts streams whose buffers were dropped by the byte
	// budget; Rebuilds counts evicted streams that were re-materialized
	// because a cursor still needed their ranks. Both are monotone:
	// rebuild counts of entries that have since been dropped are folded
	// into a retired aggregate rather than vanishing with the entry.
	Evictions uint64 `json:"evictions"`
	Rebuilds  uint64 `json:"rebuilds"`
}

// streamEntry is one materialized stream plus its cache bookkeeping.
type streamEntry struct {
	key     SolverKey
	stream  *core.SharedStream
	refs    int
	bytes   int64 // last footprint charged against the store total
	elem    *list.Element
	handles map[*StreamHandle]struct{} // live consumers; min position floors trims
}

// StreamStore holds one MaterializedStream per (graph fingerprint, cost,
// bound) key — the shared ranked-stream cache. All consumers of a key
// (paging sessions and NDJSON streams alike) read the same append-only
// buffer, so N concurrent clients on one graph cost one enumeration, not
// N. Buffers are kept under an LRU byte budget: when the total estimated
// footprint exceeds it, the least recently used buffers are dropped
// (truncation-aware — the stream rebuilds lazily and replays the same
// prefix if a cursor still needs it), and unreferenced dropped streams
// are removed entirely.
type StreamStore struct {
	mu         sync.Mutex
	budget     int64
	maxEntries int
	entries    map[SolverKey]*streamEntry
	lru        *list.List // of *streamEntry; front = most recently used
	total      int64
	hits       uint64
	misses     uint64
	evictions  uint64

	// Dropped entries' read/solve and rebuild counts fold in here, so the
	// /v1/stats counters are monotone across entry churn; live-stream
	// counters are aggregated from the entries.
	readRetired core.PrefetchStats
	rbRetired   uint64
}

// NewStreamStore returns a store evicting buffers beyond budgetBytes
// (<= 0 selects the 64 MiB default) and dropping unreferenced entries
// beyond maxStreams (<= 0 selects 256) — entries pin their solver, so
// the entry count needs a bound of its own beyond the byte budget.
func NewStreamStore(budgetBytes int64, maxStreams int) *StreamStore {
	if budgetBytes <= 0 {
		budgetBytes = defaultStreamBudget
	}
	if maxStreams <= 0 {
		maxStreams = defaultMaxStreams
	}
	return &StreamStore{
		budget:     budgetBytes,
		maxEntries: maxStreams,
		entries:    make(map[SolverKey]*streamEntry),
		lru:        list.New(),
	}
}

// Tune does nothing: every stream solves each Next's Lawler–Murty
// branches over GOMAXPROCS goroutines (core.Solver.EnumerateContext). It
// exists only because the benchrun module calls it.
func (st *StreamStore) Tune(_, _ int, _ int64) {}

// dropEntryLocked detaches e from the table and LRU, reclaims its byte
// accounting and folds its counters into the retired aggregates. The
// caller holds st.mu (lock order store.mu → stream.mu is safe:
// SharedStream never calls back into the store).
func (st *StreamStore) dropEntryLocked(e *streamEntry) {
	st.total -= e.bytes
	e.bytes = 0
	st.lru.Remove(e.elem)
	e.elem = nil
	delete(st.entries, e.key)
	st.readRetired = sumPrefetchStats(st.readRetired, e.stream.PrefetchStats())
	st.rbRetired += e.stream.Rebuilds()
}

// sumPrefetchStats folds b into a.
func sumPrefetchStats(a, b core.PrefetchStats) core.PrefetchStats {
	a.Hits += b.Hits
	a.DemandSolves += b.DemandSolves
	return a
}

// PrefetchStats aggregates the buffer-read vs solve counters over every
// stream this store has ever held (dropped streams' counts are folded
// into a retired aggregate, so the numbers are monotone).
func (st *StreamStore) PrefetchStats() PrefetchStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.readRetired
	for _, e := range st.entries {
		out = sumPrefetchStats(out, e.stream.PrefetchStats())
	}
	return PrefetchStats{BufferedHits: out.Hits, DemandSolves: out.DemandSolves}
}

// Close does nothing: streams own no goroutine, so there is nothing to
// stop. It exists only because the benchrun module calls it.
func (st *StreamStore) Close() {}

// StreamHandle is one consumer's reference to a materialized stream.
// Release it exactly once when the consumer is done; the buffer itself
// stays cached for future consumers until the byte budget evicts it.
type StreamHandle struct {
	store *StreamStore
	e     *streamEntry
	pos   atomic.Int64 // last rank read; the store trims no window past it
	once  sync.Once
}

// Acquire returns a handle on the materialized stream for key, creating
// it over backend's enumeration on a miss. The caller must ensure key
// uniquely identifies (graph, cost, options, backend) — two Acquires with
// equal keys share one buffer regardless of the backend passed (the
// server's SolverKey guarantees this; see pool.go). Any core.Backend
// works here because every backend's enumeration order is deterministic,
// which is what the evict-and-replay contract of SharedStream needs.
func (st *StreamStore) Acquire(key SolverKey, backend core.Backend) *StreamHandle {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if ok {
		st.hits++
	} else {
		st.misses++
		e = &streamEntry{
			key: key,
			// Background context: the producer must outlive any single
			// consumer, and consumer cancellation is observed in At.
			stream: core.NewSharedStream(func() *core.Enumerator {
				return backend.EnumerateContext(context.Background())
			}),
			handles: make(map[*StreamHandle]struct{}),
		}
		st.entries[key] = e
		e.elem = st.lru.PushFront(e)
		// Enforce the entry cap on the cold end: only unreferenced entries
		// can go (referenced ones are bounded by the session/stream
		// population), never the entry just inserted — its refs++ is still
		// pending below.
		for el := st.lru.Back(); el != nil && len(st.entries) > st.maxEntries; {
			prev := el.Prev()
			v := el.Value.(*streamEntry)
			if v != e && v.refs == 0 {
				st.dropEntryLocked(v)
				st.evictions++
			}
			el = prev
		}
	}
	e.refs++
	st.lru.MoveToFront(e.elem)
	h := &StreamHandle{store: st, e: e}
	e.handles[h] = struct{}{}
	return h
}

// touchStride batches the store bookkeeping: a cursor refreshes byte
// accounting and LRU recency once every touchStride ranks (plus at
// stream end) instead of on every read, keeping the store mutex off the
// pure-memory fan-out hot path. The cost is bounded staleness — the
// budget can overshoot by up to touchStride results per active cursor
// between touches.
const touchStride = 16

// At returns the result of rank i from the shared buffer, producing it
// (and everything before it) on demand — see core.SharedStream.At.
func (h *StreamHandle) At(ctx context.Context, i int) (*core.Result, bool, error) {
	// Publish the position before reading so a concurrent trim never
	// slides the window past a rank someone is about to return.
	h.pos.Store(int64(i))
	r, ok, err := h.e.stream.At(ctx, i)
	if i%touchStride == 0 || !ok || err != nil {
		h.store.touch(h.e)
	}
	return r, ok, err
}

// BufferedAhead reports how many results past position pos have already
// been materialized — the ranks a consumer at pos can read without any
// solving work (ranks a budget trim dropped would need a rebuild, so
// this is the optimistic count).
func (h *StreamHandle) BufferedAhead(pos int) int {
	if n := h.e.stream.Produced() - pos; n > 0 {
		return n
	}
	return 0
}

// Buffered returns the number of materialized ranks.
func (h *StreamHandle) Buffered() int { return h.e.stream.Buffered() }

// Release drops this consumer's reference. Idempotent.
func (h *StreamHandle) Release() {
	h.once.Do(func() { h.store.release(h) })
}

func (st *StreamStore) release(h *StreamHandle) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := h.e
	delete(e.handles, h)
	e.refs--
	// A dropped (or never-produced) buffer holds no bytes, so the byte
	// budget would never reclaim its entry; drop it here once unreferenced
	// to keep the table bounded. Buffers with content stay cached — they
	// are the fan-out asset — until the budget evicts them.
	if e.refs == 0 && e.stream.Buffered() == 0 && e.elem != nil {
		st.dropEntryLocked(e)
	}
}

// touch refreshes e's recency and byte accounting, then reclaims space
// in two steps. First, a stream that alone exceeds the whole budget is
// not allowed to grow without bound: its window is trimmed from the
// oldest rank up to the position of its *slowest* live cursor, so a
// lone NDJSON client over a huge enumeration holds ~budget bytes.
// Trimming past a live cursor would be worse than the memory it saves —
// the lagging cursor's next read would Reset the whole stream and the
// leading cursor would re-enumerate its full prefix, ping-ponging on
// every page — so the buffer is instead bounded by budget + the lag
// between slowest and fastest cursor, and idle-session eviction bounds
// that lag in time. Second, while the store total still exceeds the
// budget and other entries hold bytes, the least recently used buffers
// are dropped — never the entry being touched, so the hot stream cannot
// thrash itself.
func (st *StreamStore) touch(e *streamEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.elem == nil {
		return // detached from the store; no accounting
	}
	st.lru.MoveToFront(e.elem)
	nb := e.stream.Bytes()
	if nb > st.budget {
		floor := -1
		for h := range e.handles {
			if p := int(h.pos.Load()); floor == -1 || p < floor {
				floor = p
			}
		}
		if floor > 0 {
			// Lock order store.mu → stream.mu is safe: SharedStream never
			// calls back into the store.
			e.stream.TrimOver(st.budget, floor)
			nb = e.stream.Bytes()
		}
	}
	st.total += nb - e.bytes
	e.bytes = nb
	// Walk the LRU only while some *other* entry holds reclaimable bytes;
	// once the overflow is entirely the touched entry's own (post-trim)
	// window, scanning the list would be O(streams) of useless work per
	// read.
	for el := st.lru.Back(); el != nil && st.total > st.budget && st.total > e.bytes; {
		prev := el.Prev()
		v := el.Value.(*streamEntry)
		if v != e && v.bytes > 0 {
			st.total -= v.bytes
			v.bytes = 0
			v.stream.Reset()
			st.evictions++
			if v.refs == 0 {
				st.dropEntryLocked(v)
			}
		}
		el = prev
	}
}

// Stats returns a snapshot of the stream-cache counters.
func (st *StreamStore) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := StreamStats{
		Streams:     len(st.entries),
		Bytes:       st.total,
		BudgetBytes: st.budget,
		Hits:        st.hits,
		Misses:      st.misses,
		Evictions:   st.evictions,
	}
	out.Rebuilds = st.rbRetired
	for _, e := range st.entries {
		out.Cursors += e.refs
		out.BufferedResults += e.stream.Buffered()
		out.Rebuilds += e.stream.Rebuilds()
	}
	return out
}

// Len returns the number of materialized streams currently held.
func (st *StreamStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// Contains reports whether a materialized stream for key is currently
// held — a pre-Acquire peek the server uses to attribute canonical-keying
// cache hits (racy by nature, which is fine for a counter).
func (st *StreamStore) Contains(key SolverKey) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[key]
	return ok
}
