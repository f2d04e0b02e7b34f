package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrSessionNotFound reports an unknown, completed or evicted session
// token (HTTP 404).
var ErrSessionNotFound = errors.New("service: unknown or expired session")

// ErrTooManySessions reports that the live-session table is full
// (HTTP 429).
var ErrTooManySessions = errors.New("service: session limit reached")

// ErrShuttingDown reports that the manager has been closed and accepts no
// new sessions (HTTP 503).
var ErrShuttingDown = errors.New("service: shutting down")

// Session is one client's cursor over a shared materialized stream: a
// token, a position, and nothing else that costs memory — the results
// themselves live in the StreamStore buffer, shared with every other
// cursor on the same (graph, cost, bound) key. Paging reads the buffer
// and drives production only past its end (singleflighted per rank across
// all cursors); a page interrupted mid-flight simply does not advance the
// position, so the retry re-reads the same ranks from the buffer — no
// private redelivery state is needed. All paging goes through NextPage,
// which serializes concurrent requests for the same token.
type Session struct {
	Token string
	Key   SolverKey

	g *graph.Graph
	// fromCanon maps the stream's (canonical) labels back to the client's
	// labels; nil when the client submitted in canonical labels already or
	// the labeling search fell back to label-sensitive keys. Results are
	// stored canonically — one shared buffer serves every isomorphic
	// client — and each page is written in this client's labels through
	// fromCanon (see wireResult).
	fromCanon []int
	mu        sync.Mutex
	stream    *StreamHandle
	ctx       context.Context // the session's context; done = evicted/shutdown
	cancel    context.CancelFunc
	closer    sync.Once
	last      time.Time
	pos       int // ranks [0, pos) have been committed to the client
	done      bool
}

// close cancels the session's context and releases its stream reference.
func (s *Session) close() {
	s.closer.Do(func() {
		s.cancel()
		s.stream.Release()
	})
}

// SessionStats is a snapshot of SessionManager counters.
type SessionStats struct {
	Live    int    `json:"live"`
	Created uint64 `json:"created"`
	Expired uint64 `json:"expired"`
}

// SessionManager owns the token → Session table: creation under a
// capacity limit, lookup, deletion, idle eviction by a janitor goroutine,
// and release of every cursor on shutdown. The enumeration state itself
// lives in the StreamStore; evicting a session releases one reference on
// its stream and nothing more — other cursors and the buffered prefix are
// untouched.
type SessionManager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	store    *StreamStore
	max      int
	idle     time.Duration
	created  uint64
	expired  uint64
	closed   bool

	base       context.Context
	baseCancel context.CancelFunc
	janitor    chan struct{}
}

// NewSessionManager returns a manager holding at most max sessions over
// store's materialized streams, evicting sessions idle longer than idle.
func NewSessionManager(max int, idle time.Duration, store *StreamStore) *SessionManager {
	if max < 1 {
		max = 1
	}
	if idle <= 0 {
		idle = 5 * time.Minute
	}
	if store == nil {
		store = NewStreamStore(0, 0)
	}
	base, cancel := context.WithCancel(context.Background())
	m := &SessionManager{
		sessions:   make(map[string]*Session),
		store:      store,
		max:        max,
		idle:       idle,
		base:       base,
		baseCancel: cancel,
		janitor:    make(chan struct{}),
	}
	go m.runJanitor()
	return m
}

// Create registers a new cursor over the shared stream for key, served by
// backend on a stream-cache miss. No enumeration work happens here — the
// first NextPage drives (or merely reads) the shared buffer. clientG is
// the graph in the client's own labeling (nil defaults to the backend's
// graph) and fromCanon, when non-nil, maps the backend's canonical labels
// back to the client's — the per-cursor egress permutation of canonical
// cache keying.
//
// The shutdown and capacity checks run before the stream is acquired, so
// a rejected Create leaves the stream store untouched: no miss counted,
// no cached stream evicted by the entry cap.
func (m *SessionManager) Create(backend core.Backend, key SolverKey, clientG *graph.Graph, fromCanon []int) (*Session, error) {
	if clientG == nil {
		clientG = backend.Graph()
	}
	// Lock order m.mu → store.mu is safe: the store never calls back into
	// the manager, and every stream release happens outside m.mu.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	if len(m.sessions) >= m.max {
		return nil, ErrTooManySessions
	}
	ctx, cancel := context.WithCancel(m.base)
	s := &Session{
		Token:     newToken(),
		Key:       key,
		g:         clientG,
		fromCanon: fromCanon,
		stream:    m.store.Acquire(key, backend),
		ctx:       ctx,
		cancel:    cancel,
		last:      time.Now(),
	}
	m.sessions[s.Token] = s
	m.created++
	return s, nil
}

// Get returns the live session for token.
func (m *SessionManager) Get(token string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[token]
	if !ok {
		return nil, ErrSessionNotFound
	}
	return s, nil
}

// Remove closes the session for token, releasing its stream reference.
func (m *SessionManager) Remove(token string) bool {
	m.mu.Lock()
	s, ok := m.sessions[token]
	delete(m.sessions, token)
	m.mu.Unlock()
	if ok {
		s.close()
	}
	return ok
}

// Close releases every live session and stops the janitor. The manager
// rejects new sessions afterwards.
func (m *SessionManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	snapshot := m.sessions
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	for _, s := range snapshot {
		s.close()
	}
	m.baseCancel()
	close(m.janitor)
}

// Stats returns a snapshot of the session counters.
func (m *SessionManager) Stats() SessionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return SessionStats{Live: len(m.sessions), Created: m.created, Expired: m.expired}
}

// runJanitor evicts idle sessions. The tick is a fraction of the idle
// timeout so eviction latency stays proportional to the configured budget.
func (m *SessionManager) runJanitor() {
	tick := m.idle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.janitor:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-m.idle)
		m.mu.Lock()
		snapshot := make([]*Session, 0, len(m.sessions))
		for _, s := range m.sessions {
			snapshot = append(snapshot, s)
		}
		m.mu.Unlock()
		for _, s := range snapshot {
			// TryLock: a session mid-NextPage is busy, hence not idle —
			// and blocking on it here (or worse, while holding m.mu)
			// would stall eviction behind one slow page.
			if !s.mu.TryLock() {
				continue
			}
			stale := s.last.Before(cutoff)
			if stale {
				// Holding s.mu across the table update keeps NextPage
				// from touching the session between check and eviction.
				// Lock order s.mu → m.mu is safe: no other path holds
				// m.mu while acquiring s.mu.
				m.mu.Lock()
				if m.sessions[s.Token] == s {
					delete(m.sessions, s.Token)
					m.expired++
				} else {
					stale = false
				}
				m.mu.Unlock()
			}
			s.mu.Unlock()
			if stale {
				s.close()
			}
		}
	}
}

// NextPage advances the cursor by up to n results, returning the global
// rank of the page's first result (so concurrent pagers on one token get
// disjoint, correctly numbered pages). The done flag reports exhaustion,
// after which the caller should Remove the session.
//
// Two cancellation sources are kept distinct. When the paging request's
// ctx dies mid-page, the cursor simply does not advance — the results
// already materialized stay in the shared buffer, so a retry re-reads
// them — and ctx's error is returned. When the session's own context is
// cancelled (idle eviction, shutdown), ErrSessionNotFound is returned
// rather than mislabelling the truncated stream as exhausted.
func (s *Session) NextPage(ctx context.Context, n int) (start int, results []*core.Result, done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = time.Now()
	start = s.pos
	for len(results) < n {
		if s.ctx.Err() != nil {
			return start, nil, false, ErrSessionNotFound
		}
		if ctx.Err() != nil {
			return start, nil, false, ctx.Err()
		}
		r, ok, aerr := s.stream.At(ctx, s.pos+len(results))
		if aerr != nil {
			if s.ctx.Err() != nil {
				return start, nil, false, ErrSessionNotFound
			}
			return start, nil, false, aerr
		}
		if !ok {
			s.done = true
			break
		}
		results = append(results, r)
	}
	s.pos += len(results)
	s.last = time.Now()
	return start, results, s.done, nil
}

// Replay re-serves up to n already-committed results starting at rank
// from — the recovery path for a response lost after NextPage committed
// it (connection dropped mid-write). Any from in [0, cursor] is
// replayable: the shared buffer retains the whole prefix, and even if the
// byte budget evicted it, the stream rebuilds and replays the identical
// ranks (hence the ctx). Replay never advances the cursor; ok=false means
// from lies beyond it. A from equal to the current cursor returns an
// empty replay and the caller should page normally.
func (s *Session) Replay(ctx context.Context, from, n int) (start int, results []*core.Result, done, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = time.Now()
	if from < 0 || from > s.pos {
		return 0, nil, false, false, nil
	}
	if from == s.pos {
		return from, nil, false, true, nil
	}
	end := from + n
	if end > s.pos {
		end = s.pos
	}
	for i := from; i < end; i++ {
		// Error returns carry from, not the zero-valued named return: an
		// error response's page start must still say where the replay was
		// anchored.
		if s.ctx.Err() != nil {
			return from, nil, false, true, ErrSessionNotFound
		}
		r, rok, aerr := s.stream.At(ctx, i)
		if aerr != nil {
			return from, nil, false, true, aerr
		}
		if !rok {
			// Impossible for ranks below the cursor: the stream replays
			// deterministically, so a committed rank always rematerializes.
			return from, nil, false, true, errors.New("service: committed rank vanished from the stream")
		}
		results = append(results, r)
	}
	return from, results, s.done && end == s.pos, true, nil
}

// page is the wire response for results, a page of this session's
// stream starting at rank start, in the client's labels; it carries the
// resume token until the enumeration is done.
func (s *Session) page(start int, results []*core.Result, done bool) *EnumerateResponse {
	resp := &EnumerateResponse{Done: done, Results: make([]TriangulationJSON, len(results))}
	for i, r := range results {
		resp.Results[i] = wireResult(s.g, start+i, r, s.fromCanon)
	}
	if !done {
		resp.Session = s.Token
	}
	return resp
}

// Info returns the session's wire metadata.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		Session:       s.Token,
		Emitted:       s.pos,
		BufferedAhead: s.stream.BufferedAhead(s.pos),
		IdleSeconds:   time.Since(s.last).Seconds(),
	}
}

// newToken returns an opaque 128-bit resume token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
