package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hyper"
)

// Config tunes the Server. Zero values select the documented defaults.
type Config struct {
	// CacheSize caps the solver pool (default 64 solvers).
	CacheSize int
	// MaxSessions caps concurrently parked enumerations (default 256).
	MaxSessions int
	// IdleTimeout evicts sessions not paged for this long (default 5m).
	IdleTimeout time.Duration
	// PageSize is the default page size (default 10, hard cap 1000).
	PageSize int
	// MaxConcurrent bounds requests admitted into solver initialization
	// and paging at once; excess requests queue on the admission
	// semaphore until admitted or cancelled (default 8).
	MaxConcurrent int
	// MaxVertices rejects larger graphs with 400 — solver initialization
	// is exponential in the worst case, so a service must bound its
	// inputs (default 128).
	MaxVertices int
	// MaxBodyBytes caps request bodies (default 16 MiB; 413 past it).
	// Batch deployments raise it — a /v1/batch body carries many problems.
	MaxBodyBytes int64
	// MaxBatchItems caps the problems one /v1/batch request may carry
	// (default 256). The whole batch runs under a single admission slot,
	// so the cap bounds how much solving one slot can be made to do.
	MaxBatchItems int
	// InitTimeout bounds one solver initialization (default 60s).
	InitTimeout time.Duration
	// StreamTimeout bounds one NDJSON stream's total lifetime (default
	// 5m). A stream holds an admission slot from start to finish, so an
	// unbounded stream could park a slot forever.
	StreamTimeout time.Duration
	// StreamBudgetBytes caps the total estimated footprint of the
	// materialized result buffers shared by sessions and NDJSON streams
	// (default 64 MiB). Past the budget the least recently used buffers
	// are dropped; a dropped buffer rebuilds lazily and replays the
	// identical ranks if a live cursor still needs it.
	StreamBudgetBytes int64
	// DefaultBackend is the enumeration backend for requests that name
	// none: "dp" (the default — ranked-exact, cost order), "mis"
	// (unordered CKK separator-graph enumeration, no init cost) or "auto"
	// (probe the separator count and pick DP below the budget, MIS above;
	// see core.SelectBackend). A request's backend field or ?backend=
	// query knob overrides it per request.
	DefaultBackend string
	// BackendProbeBudget is the separator budget the auto policy probes
	// under (default core.DefaultProbeBudget).
	BackendProbeBudget int
	// DefaultOrbits turns on orbit-reduced enumeration for requests that
	// don't say: streams emit one representative per automorphism orbit of
	// minimal triangulations, stamped with orbit_size (core.NewOrbitBackend).
	// A request's orbits field or ?orbits= query knob overrides it per
	// request. The mode is gated on label-invariant costs — a request
	// pairing it with hypertree, fractional-htw or non-uniform statespace
	// domains is rejected with 400 regardless of this default.
	DefaultOrbits bool
}

func (c Config) withDefaults() Config {
	// Zero and negative both select the default: a negative field is
	// never meaningful here, and letting one through would panic (e.g.
	// make(chan, -1)) or wedge paging.
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.PageSize <= 0 {
		c.PageSize = 10
	}
	if c.PageSize > maxPageSize {
		c.PageSize = maxPageSize
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = defaultMaxBatchItems
	}
	if c.InitTimeout <= 0 {
		c.InitTimeout = 60 * time.Second
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Minute
	}
	if c.StreamBudgetBytes <= 0 {
		c.StreamBudgetBytes = defaultStreamBudget
	}
	if c.DefaultBackend == "" {
		c.DefaultBackend = string(core.BackendDP)
	}
	if c.BackendProbeBudget <= 0 {
		c.BackendProbeBudget = core.DefaultProbeBudget
	}
	return c
}

// maxPageSize is the hard cap on page_size, protecting response sizes.
const maxPageSize = 1000

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// unset.
const defaultMaxBodyBytes = 16 << 20

// defaultMaxBatchItems caps one /v1/batch request's problem count when
// Config.MaxBatchItems is unset.
const defaultMaxBatchItems = 256

// Server is the ranked-enumeration HTTP service (see the package doc for
// the API). It is an http.Handler; Close releases every live session.
type Server struct {
	cfg      Config
	pool     *SolverPool
	streams  *StreamStore
	sessions *SessionManager
	sem      chan struct{}
	mux      *http.ServeMux
	start    time.Time
	stats    serverCounters
}

// serverCounters are the server's own /v1/stats counters (the pool, the
// stream store and the session manager keep theirs); handleStats reads
// them into the wire blocks that document each one.
type serverCounters struct {
	requests atomic.Uint64
	// "workloads": requests per ingress shape.
	enumerate, batch, batchProblems, hypergraph, csp, cspSolves, diverse atomic.Uint64
	// "backends": served requests per backend kind.
	dp, mis, autoResolved atomic.Uint64
	// "canon": the canonical-keying funnel.
	canonRequests, relabeled, canonFallbacks, canonHits atomic.Uint64
	// "orbits": orbit-reduced requests, and the counters every orbit
	// backend this server builds reports into.
	orbitRequests atomic.Uint64
	orbit         core.OrbitCounters
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Stream entries pin their solver via the rebuild factory, so the
	// entry cap tracks the solver pool's: a stream whose solver left the
	// pool does not linger much longer than the solver itself. Its streams
	// solve each Next's Lawler–Murty branches over GOMAXPROCS workers.
	streams := NewStreamStore(cfg.StreamBudgetBytes, cfg.CacheSize)
	s := &Server{
		cfg:      cfg,
		pool:     NewSolverPool(cfg.CacheSize),
		streams:  streams,
		sessions: NewSessionManager(cfg.MaxSessions, cfg.IdleTimeout, streams),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		mux:      http.NewServeMux(),
		start:    time.Now(),
	}
	s.mux.HandleFunc("POST /v1/enumerate", s.handleEnumerate)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/hypergraph", s.handleHypergraph)
	s.mux.HandleFunc("POST /v1/csp", s.handleCSP)
	s.mux.HandleFunc("GET /v1/sessions/{token}/next", s.handleNext)
	s.mux.HandleFunc("GET /v1/sessions/{token}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{token}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close cancels every live enumeration and stops the session janitor.
// In-flight HTTP requests are the http.Server's to drain — call this
// after its Shutdown.
func (s *Server) Close() {
	s.sessions.Close()
}

// admit blocks until a concurrency slot frees up or ctx is cancelled.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// decodeRequest decodes a JSON request body under the configured body
// cap, writing the client error itself (400 for malformed JSON, 413 for
// an over-long body) and reporting whether the handler should proceed.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes (raise -max-body)", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err))
		}
		return false
	}
	return true
}

// handleEnumerate serves POST /v1/enumerate, the plain single-problem
// ingress: the whole request is the problem.
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	var req EnumerateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	s.stats.enumerate.Add(1)
	s.serveProblem(w, r, &req, nil)
}

// serveProblem is the single-problem pipeline every POST endpoint but
// /v1/batch runs once it has decoded and validated its body into req:
// compile (400), admit (503), build the engine, then stream NDJSON or
// answer with a first page or a diverse portfolio. finish, when non-nil,
// completes a JSON response under the admission slot — the endpoint's own
// block — from the response's results in canonical labels; its error is
// a 500.
func (s *Server) serveProblem(w http.ResponseWriter, r *http.Request, req *EnumerateRequest,
	finish func(cp *CompiledProblem, resp *EnumerateResponse, results []*core.Result) error) {
	ctx := r.Context()
	cp, err := s.compileProblem(req, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("cancelled while waiting for admission"))
		return
	}
	defer release()

	if status, err := s.buildBackend(ctx, cp); err != nil {
		writeError(w, status, err)
		return
	}

	if req.Stream {
		s.streamResults(w, r, cp, req.MaxResults)
		return
	}

	resp, results, status, err := s.respond(ctx, cp)
	if err == nil && finish != nil {
		status, err = http.StatusInternalServerError, finish(cp, resp, results)
	}
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// canonicalize relabels the request's graph into canonical form (see
// graph.CanonicalForm) along with every label-carrying cost parameter —
// hyperedges and per-vertex domains — so that buildCost and the solver
// key downstream see only canonical labels. It returns the graph and
// hypergraph to use plus the canonical→client permutation for egress
// relabeling; a nil permutation means the results need no relabeling
// (the client already submitted canonical labels, or the labeling search
// blew its budget and the key stays label-sensitive — correct, merely
// missing cross-labeling dedup).
func (s *Server) canonicalize(req *EnumerateRequest, g *graph.Graph, h *hyper.Hypergraph) (*graph.Graph, *hyper.Hypergraph, []int) {
	s.stats.canonRequests.Add(1)
	canonG, perm, exact := g.CanonicalForm()
	if !exact {
		s.stats.canonFallbacks.Add(1)
		return g, h, nil
	}
	identity := true
	for v, p := range perm {
		if v != p {
			identity = false
			break
		}
	}
	if identity {
		return g, h, nil
	}
	s.stats.relabeled.Add(1)
	if h != nil {
		nh := hyper.New(h.NumVertices())
		for _, e := range h.Edges() {
			nh.AddEdgeSet(e.Relabel(perm))
		}
		h = nh
	}
	// Domains are per-vertex parameters, so they must follow the vertices;
	// a wrong-length slice is left alone for buildCost to reject.
	if len(req.Domains) == g.Universe() {
		doms := make([]int, len(req.Domains))
		for v, d := range req.Domains {
			doms[perm[v]] = d
		}
		req.Domains = doms
	}
	fromCanon := make([]int, len(perm))
	for v, p := range perm {
		fromCanon[p] = v
	}
	return canonG, h, fromCanon
}

// streamWriteTimeout bounds each NDJSON line write. The stream holds an
// admission slot for its whole lifetime, so a client that accepts bytes
// arbitrarily slowly must not be able to park that slot forever.
const streamWriteTimeout = 30 * time.Second

// streamResults writes the enumeration as NDJSON lines bound to the
// request context: a disconnect cancels the hot loop, a stalled reader
// hits the per-line write deadline, and the stream's total lifetime is
// capped by Config.StreamTimeout so a slow-but-steady reader cannot park
// an admission slot forever. No session is created; the stream is the
// whole lifecycle. The results come from the same shared materialized
// stream the paging sessions read: concurrent NDJSON streams and sessions
// on one (graph, cost, bound, backend) key split a single enumeration
// between them instead of each running their own.
// Results are stored canonically; each line is written in the client's
// labels through cp.FromCanon (see wireResult).
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, cp *CompiledProblem, max int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StreamTimeout)
	defer cancel()
	h := s.streams.Acquire(cp.Key, cp.Engine)
	defer h.Release()
	count := 0
	for max <= 0 || count < max {
		res, ok, err := h.At(ctx, count)
		if err != nil || !ok {
			break
		}
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if enc.Encode(wireResult(cp.ClientGraph, count, res, cp.FromCanon)) != nil {
			return // client gone or stalled past the deadline
		}
		count++
		if flusher != nil {
			flusher.Flush()
		}
	}
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	summary := map[string]any{"done": true, "count": count}
	if ctx.Err() != nil && (max <= 0 || count < max) {
		// The stream-lifetime budget expired before exhaustion: the
		// client got a prefix, not the full enumeration.
		summary["done"] = false
		summary["truncated"] = true
	}
	enc.Encode(summary)
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	sess, err := s.sessions.Get(r.PathValue("token"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// Malformed knobs are 400s before the request queues for admission: a
	// client error must not wait behind solver work.
	q := r.URL.Query()
	pageSize, err := knob(q, "page_size", strconv.Atoi, nil, 0)
	if err == nil {
		pageSize, err = clampPageSize(pageSize, s.cfg.PageSize)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	from := -1
	if raw := q.Get("from"); raw != "" {
		if from, err = strconv.Atoi(raw); err != nil || from < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", raw))
			return
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("cancelled while waiting for admission"))
		return
	}
	defer release()

	if from >= 0 {
		// Replay is the recovery path for a page lost in flight: any rank
		// the session already committed re-serves from the shared stream
		// buffer. It runs under an admission slot because a buffer the
		// byte budget evicted rebuilds (deterministically) on demand.
		start, results, done, ok, rerr := sess.Replay(ctx, from, pageSize)
		if !ok {
			writeError(w, http.StatusConflict,
				fmt.Errorf("rank %d is not replayable: it lies beyond the session's cursor", from))
			return
		}
		if rerr != nil {
			switch {
			case errors.Is(rerr, ErrSessionNotFound):
				writeError(w, http.StatusNotFound, ErrSessionNotFound)
			case ctx.Err() != nil || errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded):
				writeError(w, http.StatusServiceUnavailable, errors.New("request cancelled"))
			default:
				// Anything else is a broken invariant (a committed rank that
				// failed to rematerialize) — report it as the server bug it
				// is, not as client cancellation.
				writeError(w, http.StatusInternalServerError, rerr)
			}
			return
		}
		if len(results) > 0 {
			writeJSON(w, http.StatusOK, sess.page(start, results, done))
			return
		}
		// from equals the live cursor; fall through to normal paging.
	}

	start, results, done, pageErr := sess.NextPage(ctx, pageSize)
	if pageErr != nil {
		if errors.Is(pageErr, ErrSessionNotFound) {
			// Evicted or shut down between lookup and paging.
			writeError(w, http.StatusNotFound, ErrSessionNotFound)
			return
		}
		// The paging request died; the cursor did not advance, so the
		// session stays resumable. The response likely goes nowhere.
		writeError(w, http.StatusServiceUnavailable, errors.New("request cancelled"))
		return
	}
	if done {
		s.sessions.Remove(sess.Token)
	}
	writeJSON(w, http.StatusOK, sess.page(start, results, done))
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("token"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Remove(r.PathValue("token")) {
		writeError(w, http.StatusNotFound, ErrSessionNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := &s.stats
	writeJSON(w, http.StatusOK, &StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      c.requests.Load(),
		Pool:          s.pool.Stats(),
		Sessions:      s.sessions.Stats(),
		Solver:        s.pool.ReuseStats(),
		Atoms:         s.pool.AtomStats(),
		Streams:       s.streams.Stats(),
		Prefetch:      s.streams.PrefetchStats(),
		Backends: BackendStats{
			DP:           c.dp.Load(),
			MIS:          c.mis.Load(),
			AutoResolved: c.autoResolved.Load(),
		},
		Canon: CanonStats{
			Requests:  c.canonRequests.Load(),
			Relabeled: c.relabeled.Load(),
			Fallbacks: c.canonFallbacks.Load(),
			Hits:      c.canonHits.Load(),
		},
		Orbits: OrbitModeStats{
			DefaultOn:  s.cfg.DefaultOrbits,
			Requests:   c.orbitRequests.Load(),
			OrbitStats: c.orbit.Snapshot(),
		},
		Workloads: WorkloadStats{
			Enumerate:     c.enumerate.Load(),
			Batch:         c.batch.Load(),
			BatchProblems: c.batchProblems.Load(),
			Hypergraph:    c.hypergraph.Load(),
			CSP:           c.csp.Load(),
			CSPSolves:     c.cspSolves.Load(),
			Diverse:       c.diverse.Load(),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// solverInfo snapshots one solver for the enumerate response, including
// the atom decomposition shape when the solver routes through it.
func solverInfo(solver *core.Solver) *SolverInfo {
	info := &SolverInfo{
		MinimalSeparators: len(solver.MinimalSeparators()),
		PMCs:              len(solver.PMCs()),
		FullBlocks:        solver.NumFullBlocks(),
		InitMillis:        solver.InitDuration.Milliseconds(),
	}
	if dec := solver.Atoms(); dec != nil {
		info.Atoms = dec.Count()
		info.LargestAtom = dec.LargestAtom()
	}
	return info
}

func clampPageSize(requested, def int) (int, error) {
	if requested < 0 {
		return 0, errors.New("page_size must be positive")
	}
	if requested == 0 {
		return def, nil
	}
	if requested > maxPageSize {
		return maxPageSize, nil
	}
	return requested, nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, &ErrorResponse{Error: err.Error()})
}
