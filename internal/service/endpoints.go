package service

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/csp"
)

// handleBatch serves POST /v1/batch: many enumeration problems in one
// request, sharing one admission slot. Every problem is compiled before
// admission — compilation is cheap (graph build + canonical labeling)
// and all client errors surface without burning the slot — then the
// admitted batch solves its problems sequentially. Sequencing is what
// makes the canonical dedup pay off inside a single batch: isomorphic
// members compile to one cache key, so the first builds the solver and
// every later one hits the pool or the materialized stream. A failing
// problem reports its error in its item and never fails the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req BatchRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if len(req.Problems) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one problem"))
		return
	}
	if len(req.Problems) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d problems; the limit is %d", len(req.Problems), s.cfg.MaxBatchItems))
		return
	}
	s.stats.batch.Add(1)
	s.stats.batchProblems.Add(uint64(len(req.Problems)))

	q := r.URL.Query()
	items := make([]BatchItem, len(req.Problems))
	compiled := make([]*CompiledProblem, len(req.Problems))
	for i := range req.Problems {
		if req.Problems[i].Stream {
			items[i].Error = "stream mode is not available inside a batch; submit the problem to /v1/enumerate"
			continue
		}
		cp, err := s.compileProblem(&req.Problems[i], q)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		compiled[i] = cp
	}

	release, err := s.admit(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("cancelled while waiting for admission"))
		return
	}
	defer release()

	for i, cp := range compiled {
		if cp == nil {
			continue // compile error already recorded
		}
		if ctx.Err() != nil {
			items[i].Error = "request cancelled"
			continue
		}
		if _, err := s.buildBackend(ctx, cp); err != nil {
			items[i].Error = err.Error()
			continue
		}
		if items[i].Response, _, _, err = s.respond(ctx, cp); err != nil {
			items[i].Error = err.Error()
		}
	}

	errs := 0
	for i := range items {
		if items[i].Error != "" {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, &BatchResponse{Items: items, Errors: errs})
}

// handleHypergraph serves POST /v1/hypergraph: a hypergraph submitted as
// hyperedges, enumerated over its server-built primal graph. The body is
// the same EnumerateRequest shape restricted to hyperedge input, the
// cost defaults to "hypertree" (the hypergraph cost a plain /v1/enumerate
// client would have to opt into), and the response carries the
// hypergraph/primal shape alongside the usual enumeration payload. All
// knobs — ?backend=, ?orbits= (rejected for hypergraph costs by the
// usual gate), ?diverse=, bounds, paging, streaming — behave exactly as
// on /v1/enumerate: the compilation layer underneath is the same.
func (s *Server) handleHypergraph(w http.ResponseWriter, r *http.Request) {
	var req EnumerateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if len(req.Hyperedges) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("hypergraph input requires hyperedges"))
		return
	}
	if req.Graph6 != "" || len(req.Edges) > 0 {
		writeError(w, http.StatusBadRequest, errors.New("hypergraph input takes hyperedges only; submit graph6 or edges to /v1/enumerate"))
		return
	}
	if req.Cost == "" {
		req.Cost = "hypertree"
	}
	s.stats.hypergraph.Add(1)
	s.serveProblem(w, r, &req, func(cp *CompiledProblem, resp *EnumerateResponse, _ []*core.Result) error {
		resp.Hypergraph = &HypergraphInfo{
			Vertices:    cp.ClientGraph.Universe(),
			Hyperedges:  len(cp.Hyper.Edges()),
			PrimalEdges: cp.ClientGraph.NumEdges(),
		}
		return nil
	})
}

// handleCSP serves POST /v1/csp: a binary constraint-satisfaction
// problem. The service builds the constraint graph, compiles it through
// the same layer as every other endpoint (cost defaults to "statespace"
// under the variable domains — the ranking that models the CSP DP's
// table work), enumerates ranked decompositions, and — when Solve/Count
// is asked — runs the DP of internal/csp over the top-ranked
// decomposition as the payoff: the paper's motivating pattern of picking
// the bag structure before paying for the inference.
func (s *Server) handleCSP(w http.ResponseWriter, r *http.Request) {
	var req CSPRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	p, err := buildCSP(&req, s.cfg.MaxVertices)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.stats.csp.Add(1)
	if req.Cost == "" {
		req.Cost = "statespace"
	}
	// The synthesized enumerate request decouples the compilation layer
	// (which may relabel Domains in place during canonicalization) from
	// the CSP problem, whose client-labeled domains the payoff DP needs
	// intact.
	ereq := &EnumerateRequest{
		N:        len(p.Domains),
		Edges:    p.ConstraintGraph().Edges(),
		Cost:     req.Cost,
		Domains:  append([]int(nil), req.Domains...),
		Bound:    req.Bound,
		Backend:  req.Backend,
		Orbits:   req.Orbits,
		PageSize: req.PageSize,
		Diverse:  req.Diverse,
		Window:   req.Window,
	}
	s.serveProblem(w, r, ereq, func(cp *CompiledProblem, resp *EnumerateResponse, results []*core.Result) error {
		if !(req.Solve || req.Count) || len(results) == 0 {
			return nil
		}
		// The payoff runs over the top-ranked decomposition in the client's
		// labeling, under the same admission slot — it is real DP work,
		// O(nodes · Π domain^bagsize). Results come back in canonical
		// labels, so only the top one is relabeled.
		s.stats.cspSolves.Add(1)
		sol := &CSPSolutionJSON{}
		best := results[0]
		if cp.FromCanon != nil {
			best = core.RelabelResult(best, cp.FromCanon)
		}
		top := best.Tree
		if req.Count {
			n, err := p.Count(top)
			if err != nil {
				return fmt.Errorf("csp count over the top decomposition: %v", err)
			}
			sol.Count = &n
			sol.Satisfiable = n > 0
		}
		if req.Solve {
			asg, ok, err := p.Solve(top)
			if err != nil {
				return fmt.Errorf("csp solve over the top decomposition: %v", err)
			}
			sol.Satisfiable = ok
			sol.Assignment = asg
		}
		resp.CSP = sol
		return nil
	})
}

// buildCSP validates a wire CSP and materializes it as a csp.Problem.
// Errors are client errors (400). An empty Allowed list is honored as a
// real (unsatisfiable) constraint via csp.Constrain.
func buildCSP(req *CSPRequest, maxVertices int) (*csp.Problem, error) {
	if len(req.Domains) == 0 {
		return nil, errors.New("csp needs at least one variable (non-empty domains)")
	}
	if len(req.Domains) > maxVertices {
		return nil, fmt.Errorf("csp has %d variables; the limit is %d", len(req.Domains), maxVertices)
	}
	for v, d := range req.Domains {
		if d < 1 {
			return nil, fmt.Errorf("variable %d has non-positive domain size %d", v, d)
		}
	}
	p := csp.NewProblem(req.Domains)
	for i, c := range req.Constraints {
		x, y := c.Scope[0], c.Scope[1]
		if x < 0 || x >= len(req.Domains) || y < 0 || y >= len(req.Domains) {
			return nil, fmt.Errorf("constraint %d: scope [%d,%d] out of range for %d variables", i, x, y, len(req.Domains))
		}
		if x == y {
			return nil, fmt.Errorf("constraint %d: unary scope [%d,%d]; model unary constraints by shrinking the domain", i, x, y)
		}
		p.Constrain(x, y)
		for _, t := range c.Allowed {
			a, b := t[0], t[1]
			if a < 0 || a >= req.Domains[x] || b < 0 || b >= req.Domains[y] {
				return nil, fmt.Errorf("constraint %d: tuple [%d,%d] out of domain range [%d,%d]", i, a, b, req.Domains[x], req.Domains[y])
			}
			p.Allow(x, y, a, b)
		}
	}
	return p, nil
}
