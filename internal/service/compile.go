package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/hyper"
)

// CompiledProblem is the output of the problem-compilation layer: one
// submitted problem — whatever endpoint it arrived on — normalized into
// the form every downstream stage consumes. Graph building, canonical
// relabeling, cost construction, knob resolution and cache keying all
// happen exactly once, in compileProblem, so /v1/enumerate, /v1/batch,
// /v1/hypergraph and /v1/csp cannot drift apart in how they admit,
// cache or serve a problem.
type CompiledProblem struct {
	// ClientGraph is the graph in the client's own labeling; every wire
	// result is expressed over it.
	ClientGraph *graph.Graph
	// Graph is the graph the engines solve: the canonical form when
	// canonical keying is on and the labeling search succeeded, otherwise
	// ClientGraph itself.
	Graph *graph.Graph
	// Hyper is the (canonically relabeled) hypergraph behind hyperedge
	// input; nil for plain-graph problems.
	Hyper *hyper.Hypergraph
	// Cost ranks the enumeration; CostKey is its contribution to the
	// solver/stream cache key (parameterized costs fold their parameters
	// in — see buildCost).
	Cost    cost.Cost
	CostKey string
	// Bound is the width bound (-1 = unbounded).
	Bound int
	// PageSize is the resolved page size for paged responses.
	PageSize int
	// Kind is the requested backend; BackendAuto until ResolveBackend runs
	// the separator probe (post-admission — the probe is real work).
	// AutoRouted records that the probe, not the client, made the choice.
	Kind       core.BackendKind
	AutoRouted bool
	// Orbits selects orbit-reduced enumeration (gated on label-invariant
	// costs at compile time).
	Orbits bool
	// Diverse selects the diverse-portfolio response mode: pick Diverse
	// results from the first Window ranks maximizing pairwise fill
	// distance (0 = normal paging). Window is resolved (never 0 when
	// Diverse > 0).
	Diverse int
	Window  int
	// FromCanon maps canonical labels back to the client's labeling on
	// egress; nil when no relabeling is needed.
	FromCanon []int
	// Key identifies the solver/stream serving this problem. The Backend
	// and Orbits fields are finalized by the server's buildBackend once
	// auto routing has resolved.
	Key SolverKey
}

// knob resolves one per-request serving knob with the uniform precedence
// every endpoint shares: query parameter > request body field > server
// default. body is nil when the request body left the knob unset; parse
// converts the query string form (its error is rewritten into the
// canonical "bad <name>" client error).
func knob[T any](q url.Values, name string, parse func(string) (T, error), body *T, def T) (T, error) {
	if raw := q.Get(name); raw != "" {
		v, err := parse(raw)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("bad %s %q", name, raw)
		}
		return v, nil
	}
	if body != nil {
		return *body, nil
	}
	return def, nil
}

// optString adapts "empty means unset" string request fields to knob.
func optString(s string) *string {
	if s == "" {
		return nil
	}
	return &s
}

// optInt adapts "zero means unset" int request fields to knob.
func optInt(n int) *int {
	if n == 0 {
		return nil
	}
	return &n
}

// parseString is the identity parse for string knobs.
func parseString(s string) (string, error) { return s, nil }

// maxDiverseWindow caps the ?diverse= candidate window: the diverse
// response materializes (and holds) this many ranks, so it needs a hard
// ceiling just like page_size has.
const maxDiverseWindow = 4096

// compileProblem runs the whole pre-admission ingress pipeline for one
// problem: graph building and size limits, canonical relabeling of the
// graph and every label-carrying cost parameter, cost construction and
// cache-key derivation, and resolution of every serving knob (backend,
// orbits, diverse, page size, bound) under the query > body > default
// precedence. Every returned error is a client error (HTTP 400).
//
// The returned problem's Key carries the requested backend kind; when
// that is BackendAuto the server resolves it post-admission (see
// Server.buildBackend) and finalizes the key then.
func (s *Server) compileProblem(req *EnumerateRequest, q url.Values) (*CompiledProblem, error) {
	g, h, err := buildGraph(req, s.cfg.MaxVertices)
	if err != nil {
		return nil, err
	}
	// Canonical keying (the heart of the serving tier's caches): relabel
	// the graph — and every label-carrying cost parameter — into its
	// canonical form before the cost is built and the solver key is
	// derived, so that isomorphic submissions with different vertex
	// numberings share one solver and one materialized stream. FromCanon
	// is the per-request egress permutation mapping the shared stream's
	// canonical labels back to this client's labels; nil means no
	// relabeling is needed.
	cp := &CompiledProblem{ClientGraph: g}
	cp.Graph, cp.Hyper, cp.FromCanon = s.canonicalize(req, g, h)
	c, costKey, err := buildCost(req, cp.Graph, cp.Hyper)
	if err != nil {
		return nil, err
	}
	cp.Cost, cp.CostKey = c, costKey
	cp.Bound = -1
	if req.Bound != nil {
		if *req.Bound < 0 {
			return nil, errors.New("bound must be non-negative")
		}
		cp.Bound = *req.Bound
	}
	if req.MaxResults < 0 {
		return nil, errors.New("max_results must be non-negative")
	}
	if cp.PageSize, err = clampPageSize(req.PageSize, s.cfg.PageSize); err != nil {
		return nil, err
	}
	backendName, err := knob(q, "backend", parseString, optString(req.Backend), s.cfg.DefaultBackend)
	if err != nil {
		return nil, err
	}
	kind, ok := core.ParseBackendKind(backendName)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (want auto, dp, mis or mis-scored)", backendName)
	}
	cp.Kind = kind
	if cp.Orbits, err = knob(q, "orbits", strconv.ParseBool, req.Orbits, s.cfg.DefaultOrbits); err != nil {
		return nil, err
	}
	if cp.Orbits {
		if err := orbitCostCheck(req); err != nil {
			return nil, err
		}
	}
	if cp.Diverse, err = knob(q, "diverse", strconv.Atoi, optInt(req.Diverse), 0); err != nil {
		return nil, err
	}
	if cp.Diverse < 0 {
		return nil, errors.New("diverse must be non-negative")
	}
	if cp.Window, err = knob(q, "window", strconv.Atoi, optInt(req.Window), 0); err != nil {
		return nil, err
	}
	if cp.Window != 0 && cp.Diverse == 0 {
		return nil, errors.New("window requires diverse mode (?diverse=k)")
	}
	if cp.Diverse > 0 {
		if req.Stream {
			return nil, errors.New("diverse is a one-shot paged response mode; it cannot be combined with stream")
		}
		if cp.Window <= 0 {
			cp.Window = 4 * cp.Diverse
		}
		if cp.Window < cp.Diverse {
			return nil, errors.New("window must be at least diverse")
		}
		if cp.Window > maxDiverseWindow {
			return nil, fmt.Errorf("window %d exceeds the cap %d", cp.Window, maxDiverseWindow)
		}
	}
	cp.Key = SolverKey{
		Fingerprint: cp.Graph.Fingerprint(),
		Cost:        cp.CostKey,
		Bound:       cp.Bound,
		Backend:     string(cp.Kind),
		Orbits:      cp.Orbits,
	}
	return cp, nil
}

// buildBackend is the post-admission half of the pipeline: it resolves
// auto backend routing (the separator probe is real work, so it runs
// under an admission slot), obtains the enumeration engine — the pooled,
// singleflighted DP solver or an O(1) MIS construction — wraps it for
// orbit reduction, finalizes the cache key, and attributes the
// canonical-keying cache hit. It returns the engine, the DP solver when
// one serves the request (for SolverInfo), and whether the engine was
// served without starting a new initialization. On error the returned
// status is the HTTP status to report (503 for cancelled or
// out-of-budget initialization, 500 for genuine server bugs).
func (s *Server) buildBackend(ctx context.Context, cp *CompiledProblem) (core.Backend, *core.Solver, bool, int, error) {
	if cp.AutoRouted = cp.Kind == core.BackendAuto; cp.AutoRouted {
		cp.Kind = core.SelectBackend(ctx, cp.Graph, cp.Kind, s.cfg.BackendProbeBudget)
	}

	var backend core.Backend
	var dpSolver *core.Solver
	var hit bool
	if cp.Kind == core.BackendDP {
		key := SolverKey{Fingerprint: cp.Graph.Fingerprint(), Cost: cp.CostKey, Bound: cp.Bound, Backend: string(core.BackendDP)}
		solver, poolHit, err := s.pool.Get(ctx, key, func(bctx context.Context) (*core.Solver, error) {
			bctx, cancel := context.WithTimeout(bctx, s.cfg.InitTimeout)
			defer cancel()
			var opts core.Options
			if cp.Bound >= 0 {
				b := cp.Bound
				opts.WidthBound = &b
			}
			return core.New(bctx, cp.Graph, cp.Cost, opts)
		})
		if err != nil {
			// Cancelled or out-of-budget initialization is a capacity signal
			// (503, as documented), not a server bug (500). The error names
			// the escape hatch: the MIS backend has no init to time out.
			status := http.StatusInternalServerError
			if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusServiceUnavailable
			}
			return nil, nil, false, status, fmt.Errorf("solver initialization failed (consider ?backend=mis): %v", err)
		}
		backend, dpSolver, hit = solver, solver, poolHit
	} else {
		// The MIS backends are O(1) to construct — the separator stream and
		// the independent-set walk start lazily on the first result — so
		// there is nothing to pool and no init budget to enforce. The
		// shared-stream cache still dedups the enumeration work across
		// consumers by key.
		opts := core.MISOptions{Scored: cp.Kind == core.BackendMISScored}
		if cp.Bound >= 0 {
			b := cp.Bound
			opts.WidthBound = &b
		}
		backend = core.NewMISBackend(cp.Graph, cp.Cost, opts)
	}
	s.backends.count(cp.Kind, cp.AutoRouted)
	cp.Key = SolverKey{Fingerprint: cp.Graph.Fingerprint(), Cost: cp.CostKey, Bound: cp.Bound, Backend: string(cp.Kind)}
	if cp.Orbits {
		// The orbit wrapper goes around whatever engine was resolved, and
		// the key gains the Orbits bit so the shared stream cache never
		// serves a reduced sequence to an unreduced consumer or vice versa.
		// The pooled DP solver itself stays shared across both modes — all
		// orbit state lives in the wrapper (and its per-enumeration filter).
		s.orbits.requests.Add(1)
		backend = core.NewOrbitBackend(backend, &s.orbits.core)
		cp.Key.Orbits = true
	}
	// A canonical hit is a relabeled request served by a solver or
	// materialized stream that some *other* labeling built — counted
	// before this request acquires the stream itself.
	if cp.FromCanon != nil && (hit || s.streams.Contains(cp.Key)) {
		s.canon.hits.Add(1)
	}
	return backend, dpSolver, hit, 0, nil
}

// pagedResponse serves one compiled problem as a first page plus resume
// token — the classic /v1/enumerate response shape, reused verbatim by
// /v1/batch items and the /v1/hypergraph and /v1/csp endpoints. The
// returned results are the first page in the client's labeling (the
// /v1/csp payoff solver consumes them); on error the returned status is
// the HTTP status to report.
func (s *Server) pagedResponse(ctx context.Context, cp *CompiledProblem, backend core.Backend, dpSolver *core.Solver, hit bool) (*EnumerateResponse, []*core.Result, int, error) {
	sess, err := s.sessions.Create(backend, cp.Key, cp.ClientGraph, cp.FromCanon)
	if err != nil {
		return nil, nil, statusFor(err), err
	}
	_, results, done, pageErr := sess.NextPage(ctx, cp.PageSize)
	if done || pageErr != nil || ctx.Err() != nil {
		// Exhausted in the first page, evicted under us, or the client is
		// gone before it ever saw the token: either way no live session
		// must remain behind.
		s.sessions.Remove(sess.Token)
	}
	if pageErr != nil || ctx.Err() != nil {
		return nil, nil, http.StatusServiceUnavailable, errors.New("request cancelled")
	}
	client := sess.egress(results)
	resp := &EnumerateResponse{
		Done:     done,
		CacheHit: hit,
		Cost:     cp.Cost.Name(),
		Backend:  string(cp.Kind),
		Ranked:   backend.Ranked(),
		Orbits:   cp.Orbits,
		Graph:    &GraphInfo{N: cp.ClientGraph.Universe(), M: cp.ClientGraph.NumEdges(), Fingerprint: cp.Key.Fingerprint},
		Results:  pageJSON(cp.ClientGraph, 0, client),
	}
	if dpSolver != nil {
		resp.Solver = solverInfo(dpSolver)
	}
	if !done {
		resp.Session = sess.Token
	}
	return resp, client, 0, nil
}

// diverseResponse serves one compiled problem in the ?diverse=k response
// mode: materialize the first Window ranks of the shared stream (cached
// and deduplicated across clients like any other read), greedily select
// the k most structurally different ones (core.DiverseSelect, optimum
// always first), and return them in one session-less response. Each
// result keeps its rank in the underlying enumeration as its index. The
// returned results are the selection in the client's labeling; on error
// the returned status is the HTTP status to report.
func (s *Server) diverseResponse(ctx context.Context, cp *CompiledProblem, backend core.Backend, dpSolver *core.Solver, hit bool) (*EnumerateResponse, []*core.Result, int, error) {
	s.workloads.diverse.Add(1)
	h := s.streams.Acquire(cp.Key, backend)
	defer h.Release()
	pool := make([]*core.Result, 0, cp.Window)
	for len(pool) < cp.Window {
		r, ok, err := h.At(ctx, len(pool))
		if err != nil {
			return nil, nil, http.StatusServiceUnavailable, errors.New("request cancelled")
		}
		if !ok {
			break // window larger than the finite stream: select from what exists
		}
		pool = append(pool, r)
	}
	idx := core.DiverseSelect(cp.Graph, pool, cp.Diverse)
	client := make([]*core.Result, len(idx))
	page := make([]TriangulationJSON, len(idx))
	for i, j := range idx {
		r := pool[j]
		if cp.FromCanon != nil {
			r = core.RelabelResult(r, cp.FromCanon)
		}
		client[i] = r
		page[i] = resultJSON(cp.ClientGraph, j, r)
	}
	resp := &EnumerateResponse{
		Done:     true,
		CacheHit: hit,
		Cost:     cp.Cost.Name(),
		Backend:  string(cp.Kind),
		Ranked:   backend.Ranked(),
		Orbits:   cp.Orbits,
		Diverse:  cp.Diverse,
		Window:   len(pool),
		Graph:    &GraphInfo{N: cp.ClientGraph.Universe(), M: cp.ClientGraph.NumEdges(), Fingerprint: cp.Key.Fingerprint},
		Results:  page,
	}
	if dpSolver != nil {
		resp.Solver = solverInfo(dpSolver)
	}
	return resp, client, 0, nil
}
