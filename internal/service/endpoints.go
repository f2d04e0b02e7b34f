package service

import (
	"context"
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
	s.workloads.batch.Add(1)
	s.workloads.batchProblems.Add(uint64(len(req.Problems)))

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
		items[i] = s.solveItem(ctx, cp)
	}

	errs := 0
	for i := range items {
		if items[i].Error != "" {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, &BatchResponse{Items: items, Errors: errs})
}

// solveItem runs the post-admission half of the pipeline for one
// compiled problem and packages the outcome as a batch item. The caller
// holds the admission slot.
func (s *Server) solveItem(ctx context.Context, cp *CompiledProblem) BatchItem {
	backend, dpSolver, hit, _, err := s.buildBackend(ctx, cp)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	resp, _, _, err := s.respond(ctx, cp, backend, dpSolver, hit)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	return BatchItem{Response: resp}
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
	ctx := r.Context()
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
	s.workloads.hypergraph.Add(1)
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

	resp, _, status, err := s.respond(ctx, cp, backend, dpSolver, hit)
	if err != nil {
		writeError(w, status, err)
		return
	}
	resp.Hypergraph = &HypergraphInfo{
		Vertices:    cp.ClientGraph.Universe(),
		Hyperedges:  len(cp.Hyper.Edges()),
		PrimalEdges: cp.ClientGraph.NumEdges(),
	}
	writeJSON(w, http.StatusOK, resp)
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
	ctx := r.Context()
	var req CSPRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	p, err := buildCSP(&req, s.cfg.MaxVertices)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.workloads.csp.Add(1)
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
	cp, err := s.compileProblem(ereq, r.URL.Query())
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

	resp, results, status, err := s.respond(ctx, cp, backend, dpSolver, hit)
	if err != nil {
		writeError(w, status, err)
		return
	}

	if (req.Solve || req.Count) && len(results) > 0 {
		// The payoff runs over the top-ranked decomposition in the client's
		// labeling, under the same admission slot — it is real DP work,
		// O(nodes · Π domain^bagsize). Results come back in canonical
		// labels, so only the top one is relabeled.
		s.workloads.cspSolves.Add(1)
		sol := &CSPSolutionJSON{}
		best := results[0]
		if cp.FromCanon != nil {
			best = core.RelabelResult(best, cp.FromCanon)
		}
		top := best.Tree
		if req.Count {
			n, cerr := p.Count(top)
			if cerr != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("csp count over the top decomposition: %v", cerr))
				return
			}
			sol.Count = &n
			sol.Satisfiable = n > 0
		}
		if req.Solve {
			asg, ok, serr := p.Solve(top)
			if serr != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("csp solve over the top decomposition: %v", serr))
				return
			}
			sol.Satisfiable = ok
			sol.Assignment = asg
		}
		resp.CSP = sol
	}
	writeJSON(w, http.StatusOK, resp)
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
