package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
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
	// SolveWorkers is the goroutine pool size each materialized stream's
	// Next fans its independent Lawler–Murty branch solves over — the
	// delay-reduction parallelization of the paper's §7.1. Zero selects
	// GOMAXPROCS; 1 pins the sequential enumeration. The emitted order is
	// identical for every setting (branches are re-ordered
	// deterministically before entering the queue).
	SolveWorkers int
	// PrefetchAhead is how many ranks past the fastest live cursor each
	// materialized stream's speculative producer runs the enumeration, so
	// an interactive client's next page is a buffer read instead of a
	// solve. Zero selects the default (64); negative disables speculation
	// (production becomes purely demand-driven, the pre-prefetch
	// behavior). The producer pauses whenever a stream has no live
	// cursors and an evicted buffer stays cold until re-demanded, so
	// speculation never burns CPU on abandoned or reclaimed streams.
	PrefetchAhead int
	// PrefetchBytes caps the buffered footprint speculation may grow one
	// stream to (demand-driven production is not limited by it — the
	// store's byte budget governs overall). Zero selects the default
	// (8 MiB); negative means no per-stream speculation ceiling.
	PrefetchBytes int64
	// DefaultBackend is the enumeration backend for requests that name
	// none: "dp" (the default — ranked-exact, cost order), "mis"
	// (unordered CKK separator-graph enumeration, no init cost),
	// "mis-scored" (MIS with a cheap best-first heuristic order) or
	// "auto" (probe the separator count and pick DP below the budget, MIS
	// above; see core.SelectBackend). A request's backend field or
	// ?backend= query knob overrides it per request.
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
	// SolveWorkers, PrefetchAhead and PrefetchBytes distinguish "unset"
	// (zero → default) from "explicitly off" (negative), unlike the fields
	// above: sequential solving and demand-driven production are
	// legitimate configurations, not degenerate ones.
	if c.SolveWorkers == 0 {
		c.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SolveWorkers < 0 {
		c.SolveWorkers = 1
	}
	if c.PrefetchAhead == 0 {
		c.PrefetchAhead = defaultPrefetchAhead
	}
	if c.PrefetchAhead < 0 {
		c.PrefetchAhead = 0 // disabled
	}
	if c.PrefetchBytes == 0 {
		c.PrefetchBytes = defaultPrefetchBytes
	}
	if c.PrefetchBytes < 0 {
		c.PrefetchBytes = 0 // no speculation byte ceiling
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

// defaultPrefetchAhead is the speculative lookahead in ranks when
// Config.PrefetchAhead is unset: a few interactive pages' worth, enough
// that a paging client never waits on a solve once the stream is warm,
// small enough that an early-abandoning client wastes little work.
const defaultPrefetchAhead = 64

// defaultPrefetchBytes bounds one stream's speculative footprint when
// Config.PrefetchBytes is unset — 1/8 of the default stream budget, so
// speculation alone cannot evict several demand-built buffers.
const defaultPrefetchBytes = defaultStreamBudget / 8

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// unset.
const defaultMaxBodyBytes = 16 << 20

// defaultMaxBatchItems caps one /v1/batch request's problem count when
// Config.MaxBatchItems is unset.
const defaultMaxBatchItems = 256

// Server is the ranked-enumeration HTTP service (see the package doc for
// the API). It is an http.Handler; Close releases every live session.
type Server struct {
	cfg       Config
	pool      *SolverPool
	streams   *StreamStore
	sessions  *SessionManager
	sem       chan struct{}
	mux       *http.ServeMux
	start     time.Time
	requests  atomic.Uint64
	backends  backendCounters
	canon     canonCounters
	orbits    orbitModeCounters
	workloads workloadCounters
}

// workloadCounters counts served requests per ingress shape for the
// /v1/stats "workloads" block.
type workloadCounters struct {
	enumerate, batch, batchProblems, hypergraph, csp, cspSolves, diverse atomic.Uint64
}

func (c *workloadCounters) stats() WorkloadStats {
	return WorkloadStats{
		Enumerate:     c.enumerate.Load(),
		Batch:         c.batch.Load(),
		BatchProblems: c.batchProblems.Load(),
		Hypergraph:    c.hypergraph.Load(),
		CSP:           c.csp.Load(),
		CSPSolves:     c.cspSolves.Load(),
		Diverse:       c.diverse.Load(),
	}
}

// orbitModeCounters aggregates orbit-mode serving for /v1/stats: how many
// enumerate requests ran orbit-reduced, plus the shared core counters
// every orbit backend this server builds reports into.
type orbitModeCounters struct {
	requests atomic.Uint64
	core     core.OrbitCounters
}

func (o *orbitModeCounters) stats(defaultOn bool) OrbitModeStats {
	return OrbitModeStats{
		DefaultOn:  defaultOn,
		Requests:   o.requests.Load(),
		OrbitStats: o.core.Snapshot(),
	}
}

// canonCounters aggregates the canonical-keying funnel for /v1/stats:
// how many enumerate requests went through canonical labeling, how many
// arrived in a non-canonical labeling (i.e. were actually relabeled), how
// many blew the labeling search budget and fell back to label-sensitive
// keys, and how many relabeled requests hit a solver or stream some
// *other* labeling built — the cache hits label-sensitive keying would
// have missed.
type canonCounters struct {
	requests, relabeled, fallbacks, hits atomic.Uint64
}

func (c *canonCounters) stats() CanonStats {
	return CanonStats{
		Requests:  c.requests.Load(),
		Relabeled: c.relabeled.Load(),
		Fallbacks: c.fallbacks.Load(),
		Hits:      c.hits.Load(),
	}
}

// backendCounters aggregates served enumerate requests per backend kind,
// plus how many of them were routed by the auto probe rather than an
// explicit choice. Snapshotted into /v1/stats.
type backendCounters struct {
	dp, mis, misScored, auto atomic.Uint64
}

func (b *backendCounters) count(kind core.BackendKind, autoRouted bool) {
	switch kind {
	case core.BackendMIS:
		b.mis.Add(1)
	case core.BackendMISScored:
		b.misScored.Add(1)
	default:
		b.dp.Add(1)
	}
	if autoRouted {
		b.auto.Add(1)
	}
}

func (b *backendCounters) stats() BackendStats {
	return BackendStats{
		DP:           b.dp.Load(),
		MIS:          b.mis.Load(),
		MISScored:    b.misScored.Load(),
		AutoResolved: b.auto.Load(),
	}
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Stream entries pin their solver via the rebuild factory, so the
	// entry cap tracks the solver pool's: a stream whose solver left the
	// pool does not linger much longer than the solver itself.
	streams := NewStreamStore(cfg.StreamBudgetBytes, cfg.CacheSize)
	streams.Tune(cfg.SolveWorkers, cfg.PrefetchAhead, cfg.PrefetchBytes)
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
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Close cancels every live enumeration and stops background work —
// including every stream's speculative producer. In-flight HTTP requests
// are the http.Server's to drain — call this after its Shutdown.
func (s *Server) Close() {
	s.sessions.Close()
	s.streams.Close()
}

// Pool exposes the solver pool (stats, tests).
func (s *Server) Pool() *SolverPool { return s.pool }

// Streams exposes the shared ranked-stream cache (stats, tests).
func (s *Server) Streams() *StreamStore { return s.streams }

// Sessions exposes the session manager (stats, tests).
func (s *Server) Sessions() *SessionManager { return s.sessions }

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

// handleEnumerate is the single-problem ingress: compile, admit, build
// the engine, respond. Every stage is shared with /v1/batch,
// /v1/hypergraph and /v1/csp — this handler is just the thinnest
// composition of the compilation layer (see compile.go).
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req EnumerateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	s.workloads.enumerate.Add(1)
	cp, err := s.compileProblem(&req, r.URL.Query())
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

	backend, dpSolver, hit, status, err := s.buildBackend(ctx, cp)
	if err != nil {
		writeError(w, status, err)
		return
	}

	if req.Stream {
		s.streamResults(w, r, cp.ClientGraph, backend, cp.Key, cp.FromCanon, req.MaxResults)
		return
	}

	var resp *EnumerateResponse
	if cp.Diverse > 0 {
		resp, _, status, err = s.diverseResponse(ctx, cp, backend, dpSolver, hit)
	} else {
		resp, _, status, err = s.pagedResponse(ctx, cp, backend, dpSolver, hit)
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
	s.canon.requests.Add(1)
	canonG, perm, exact := g.CanonicalForm()
	if !exact {
		s.canon.fallbacks.Add(1)
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
	s.canon.relabeled.Add(1)
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
// Results are stored canonically; fromCanon (when non-nil) relabels each
// line back into the client's labeling on the way out.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, g *graph.Graph, backend core.Backend, key SolverKey, fromCanon []int, max int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StreamTimeout)
	defer cancel()
	h := s.streams.Acquire(key, backend)
	defer h.Release()
	count := 0
	for max <= 0 || count < max {
		res, ok, err := h.At(ctx, count)
		if err != nil || !ok {
			break
		}
		if fromCanon != nil {
			res = core.RelabelResult(res, fromCanon)
		}
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if enc.Encode(resultJSON(g, count, res)) != nil {
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
	pageSize := s.cfg.PageSize
	if q := r.URL.Query().Get("page_size"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad page_size %q", q))
			return
		}
		if pageSize, err = clampPageSize(n, s.cfg.PageSize); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("cancelled while waiting for admission"))
		return
	}
	defer release()

	if q := r.URL.Query().Get("from"); q != "" {
		from, err := strconv.Atoi(q)
		if err != nil || from < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", q))
			return
		}
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
			resp := &EnumerateResponse{Done: done, Results: pageJSON(sess.graphOf(), start, sess.egress(results))}
			if !done {
				resp.Session = sess.Token
			}
			writeJSON(w, http.StatusOK, resp)
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
	resp := &EnumerateResponse{Done: done, Results: pageJSON(sess.graphOf(), start, sess.egress(results))}
	if !done {
		resp.Session = sess.Token
	}
	writeJSON(w, http.StatusOK, resp)
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
	writeJSON(w, http.StatusOK, &StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Pool:          s.pool.Stats(),
		Sessions:      s.sessions.Stats(),
		Solver:        s.pool.ReuseStats(),
		Atoms:         s.pool.AtomStats(),
		Streams:       s.streams.Stats(),
		Prefetch:      s.prefetchStats(),
		Backends:      s.backends.stats(),
		Canon:         s.canon.stats(),
		Orbits:        s.orbits.stats(s.cfg.DefaultOrbits),
		Workloads:     s.workloads.stats(),
	})
}

// prefetchStats snapshots the serving tier's speculation counters for
// /v1/stats, labelled with the configuration that produced them.
func (s *Server) prefetchStats() PrefetchStats {
	agg := s.streams.PrefetchStats()
	return PrefetchStats{
		Enabled:            s.cfg.PrefetchAhead > 0,
		SolveWorkers:       s.cfg.SolveWorkers,
		AheadRanks:         s.cfg.PrefetchAhead,
		AheadBytes:         s.cfg.PrefetchBytes,
		BufferedHits:       agg.Hits,
		DemandSolves:       agg.DemandSolves,
		PrefetchSolves:     agg.PrefetchSolves,
		Pauses:             agg.Pauses,
		Resumes:            agg.Resumes,
		LookaheadHighWater: agg.LookaheadHighWater,
	}
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

func pageJSON(g *graph.Graph, start int, results []*core.Result) []TriangulationJSON {
	out := make([]TriangulationJSON, len(results))
	for i, r := range results {
		out[i] = resultJSON(g, start+i, r)
	}
	return out
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
