package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/hyper"
)

// EnumerateRequest is the body of POST /v1/enumerate. Exactly one of
// Graph6, Edges or Hyperedges must be supplied (see the package doc for
// the full API description).
type EnumerateRequest struct {
	Graph6     string   `json:"graph6,omitempty"`
	N          int      `json:"n,omitempty"`
	Edges      [][2]int `json:"edges,omitempty"`
	Hyperedges [][]int  `json:"hyperedges,omitempty"`

	Cost    string `json:"cost,omitempty"`
	Domains []int  `json:"domains,omitempty"`
	Bound   *int   `json:"bound,omitempty"`

	// Backend selects the enumeration engine: "dp" (ranked-exact, cost
	// order), "mis" (unordered, no init cost), "mis-scored" (heuristic
	// best-first) or "auto" (separator-count probe). Empty defers to the
	// server's default; the ?backend= query knob overrides both.
	Backend string `json:"backend,omitempty"`

	// Orbits selects orbit-reduced enumeration: the stream collapses to
	// one representative per automorphism-group orbit of triangulations,
	// each stamped with its orbit_size (Σ orbit_size over the reduced
	// stream reconstructs the unreduced length). Unset defers to the
	// server's default; the ?orbits= query knob overrides both. Requires
	// a label-invariant cost — pairing it with hypertree, fractional-htw
	// or non-uniform statespace domains is rejected with 400.
	Orbits *bool `json:"orbits,omitempty"`

	// Diverse selects the diverse-portfolio response mode: instead of the
	// first page of the ranked order, return Diverse results chosen from
	// the first Window ranks to maximize pairwise fill distance
	// (core.DiverseSelect), optimum always first, in one session-less
	// response. Window defaults to 4·Diverse and is capped; each result
	// keeps its rank in the underlying enumeration as its index. The
	// ?diverse= / ?window= query knobs override these fields. Incompatible
	// with Stream.
	Diverse int `json:"diverse,omitempty"`
	Window  int `json:"window,omitempty"`

	PageSize   int  `json:"page_size,omitempty"`
	MaxResults int  `json:"max_results,omitempty"`
	Stream     bool `json:"stream,omitempty"`
}

// TriangulationJSON is the wire form of one core.Result. OrbitSize is
// present only on orbit-reduced streams: how many minimal triangulations
// this representative's automorphism orbit contains (≥ 1).
type TriangulationJSON struct {
	Index     int     `json:"index"`
	Cost      float64 `json:"cost"`
	Width     int     `json:"width"`
	Fill      int     `json:"fill"`
	OrbitSize int64   `json:"orbit_size,omitempty"`
	Bags      [][]int `json:"bags"`
	Seps      [][]int `json:"separators"`
}

// GraphInfo describes the submitted graph.
type GraphInfo struct {
	N           int    `json:"n"`
	M           int    `json:"m"`
	Fingerprint string `json:"fingerprint"`
}

// SolverInfo reports the initialization statistics of the solver that
// served the request (the "init" column of the paper's Table 2). For a
// decomposed solver the separator/PMC/block counts aggregate over the
// atoms and Atoms/LargestAtom describe the decomposition.
type SolverInfo struct {
	MinimalSeparators int   `json:"minimal_separators"`
	PMCs              int   `json:"pmcs"`
	FullBlocks        int   `json:"full_blocks"`
	InitMillis        int64 `json:"init_ms"`
	Atoms             int   `json:"atoms,omitempty"`
	LargestAtom       int   `json:"largest_atom,omitempty"`
}

// EnumerateResponse is the body returned by POST /v1/enumerate and, with
// only Session/Done/Results set, by GET /v1/sessions/{token}/next.
type EnumerateResponse struct {
	Session  string `json:"session,omitempty"`
	Done     bool   `json:"done"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Cost     string `json:"cost,omitempty"`
	// Backend is the engine that served the request after auto
	// resolution; Ranked reports whether its results arrive in
	// non-decreasing cost order (false for the MIS backends, whose order
	// is arbitrary or merely heuristic).
	Backend string `json:"backend,omitempty"`
	Ranked  bool   `json:"ranked,omitempty"`
	// Orbits reports whether the stream is orbit-reduced: results then
	// carry orbit_size and the enumeration emits one representative per
	// automorphism orbit instead of every triangulation.
	Orbits  bool                `json:"orbits,omitempty"`
	Graph   *GraphInfo          `json:"graph,omitempty"`
	Solver  *SolverInfo         `json:"solver,omitempty"`
	Results []TriangulationJSON `json:"results"`
	// Diverse/Window report the diverse-portfolio mode: Diverse is the
	// requested portfolio size, Window how many ranks of the stream were
	// actually materialized as candidates (smaller than requested when the
	// enumeration is finite). Zero on normal paged responses.
	Diverse int `json:"diverse,omitempty"`
	Window  int `json:"window,omitempty"`
	// Hypergraph is set by /v1/hypergraph: the shape of the submitted
	// hypergraph and its server-built primal graph.
	Hypergraph *HypergraphInfo `json:"hypergraph,omitempty"`
	// CSP is set by /v1/csp when the request asked for the solve/count
	// payoff over the top-ranked decomposition.
	CSP *CSPSolutionJSON `json:"csp,omitempty"`
}

// HypergraphInfo describes the hypergraph behind a /v1/hypergraph
// request: the service built PrimalEdges pairwise edges from Hyperedges
// hyperedges and enumerated decompositions of that primal graph.
type HypergraphInfo struct {
	Vertices    int `json:"vertices"`
	Hyperedges  int `json:"hyperedges"`
	PrimalEdges int `json:"primal_edges"`
}

// BatchRequest is the body of POST /v1/batch: many enumeration problems
// sharing one HTTP round trip and one admission slot. Query knobs
// (?backend=, ?orbits=, ?diverse=, ?window=) apply batch-wide, overriding
// each problem's own fields.
type BatchRequest struct {
	Problems []EnumerateRequest `json:"problems"`
}

// BatchItem is one problem's outcome within a BatchResponse: exactly one
// of Response or Error is set. A failing problem never fails the batch.
type BatchItem struct {
	Response *EnumerateResponse `json:"response,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/batch. Items aligns with the
// request's problems; Errors counts the items that failed.
type BatchResponse struct {
	Items  []BatchItem `json:"items"`
	Errors int         `json:"errors,omitempty"`
}

// CSPConstraint is one binary constraint of a /v1/csp request: the two
// distinct variables it relates and the explicitly allowed value pairs
// (aligned with Scope). An empty Allowed list is a real constraint — it
// admits nothing, making the problem unsatisfiable — not an absent one.
type CSPConstraint struct {
	Scope   [2]int   `json:"scope"`
	Allowed [][2]int `json:"allowed"`
}

// CSPRequest is the body of POST /v1/csp: a binary constraint-satisfaction
// problem. The service builds the constraint graph server-side and ranks
// its decompositions exactly like /v1/enumerate (Cost defaults to
// "statespace" under the variable domains — the cost that models the
// CSP DP's table work); Solve/Count additionally run the csp DP over the
// top-ranked decomposition and report the payoff in the response's CSP
// block.
type CSPRequest struct {
	// Domains is the domain size per variable (values 0..d-1); its length
	// is the variable count.
	Domains     []int           `json:"domains"`
	Constraints []CSPConstraint `json:"constraints,omitempty"`

	Cost     string `json:"cost,omitempty"`
	Bound    *int   `json:"bound,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Orbits   *bool  `json:"orbits,omitempty"`
	PageSize int    `json:"page_size,omitempty"`
	Diverse  int    `json:"diverse,omitempty"`
	Window   int    `json:"window,omitempty"`

	// Solve asks for one satisfying assignment (or a definitive
	// unsatisfiable); Count for the number of satisfying assignments. Both
	// run the DP of internal/csp over the top-ranked decomposition — the
	// paper's motivating payoff: pick the bag structure first, then pay
	// the DP under it.
	Solve bool `json:"solve,omitempty"`
	Count bool `json:"count,omitempty"`
}

// CSPSolutionJSON is the CSP payoff block of a /v1/csp response.
type CSPSolutionJSON struct {
	Satisfiable bool   `json:"satisfiable"`
	Assignment  []int  `json:"assignment,omitempty"`
	Count       *int64 `json:"count,omitempty"`
}

// SessionInfo is the body of GET /v1/sessions/{token}.
//
// BufferedAhead is how many results past this session's cursor are
// already materialized in the shared stream buffer — the ranks the next
// pages can serve without any solving work. With speculative prefetch on
// (the default) the stream's producer keeps this positive for any cursor
// within the lookahead budget, so it genuinely predicts that the next
// page is a buffer read; with prefetch off it is nonzero only when other
// cursors on the same graph, or this session's own interrupted pages,
// produced ranks ahead.
type SessionInfo struct {
	Session       string  `json:"session"`
	Emitted       int     `json:"emitted"`
	BufferedAhead int     `json:"buffered_ahead"`
	IdleSeconds   float64 `json:"idle_seconds"`
}

// AtomStats aggregates the clique-separator decompositions of the cached
// solvers for GET /v1/stats: how many solvers decomposed, the total atom
// count across them, and the largest atom seen (the quantity that
// actually bounds the exponential work).
type AtomStats struct {
	DecomposedSolvers int `json:"decomposed_solvers"`
	TotalAtoms        int `json:"total_atoms"`
	LargestAtom       int `json:"largest_atom"`
}

// PrefetchStats is the "prefetch" block of GET /v1/stats: the serving
// tier's speculation configuration plus demand-vs-speculation counters
// aggregated over every materialized stream the store has held.
// BufferedHits counts per-rank reads served straight from a buffer —
// no solve on the request's latency path; DemandSolves and
// PrefetchSolves split the production work between waiting consumers
// and the background producers. Pauses/Resumes count speculative
// producers parked when a stream's last cursor went away and woken by
// the next one. LookaheadHighWater is the most ranks any producer has
// run ahead of its stream's demand mark.
type PrefetchStats struct {
	Enabled            bool   `json:"enabled"`
	SolveWorkers       int    `json:"solve_workers"`
	AheadRanks         int    `json:"ahead_ranks"`
	AheadBytes         int64  `json:"ahead_bytes"`
	BufferedHits       uint64 `json:"buffered_hits"`
	DemandSolves       uint64 `json:"demand_solves"`
	PrefetchSolves     uint64 `json:"prefetch_solves"`
	Pauses             uint64 `json:"pauses"`
	Resumes            uint64 `json:"resumes"`
	LookaheadHighWater int    `json:"lookahead_high_water"`
}

// StatsResponse is the body of GET /v1/stats. Solver aggregates the
// incremental-DP reuse counters (see core.ReuseStats) over the cached
// solvers: dirty_blocks were re-solved under Lawler–Murty constraints,
// reused_blocks came straight from each solver's unconstrained baseline.
// Atoms aggregates the clique-separator decompositions of those solvers.
// Streams reports the shared ranked-stream cache (see StreamStats): a
// stream hit means a new session or NDJSON stream rode an existing
// materialized buffer instead of enumerating privately.
type StatsResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      uint64          `json:"requests"`
	Pool          PoolStats       `json:"pool"`
	Sessions      SessionStats    `json:"sessions"`
	Solver        core.ReuseStats `json:"solver"`
	Atoms         AtomStats       `json:"atoms"`
	Streams       StreamStats     `json:"streams"`
	Prefetch      PrefetchStats   `json:"prefetch"`
	Backends      BackendStats    `json:"backends"`
	Canon         CanonStats      `json:"canon"`
	Orbits        OrbitModeStats  `json:"orbits"`
	Workloads     WorkloadStats   `json:"workloads"`
}

// WorkloadStats is the "workloads" block of GET /v1/stats: requests per
// ingress shape. Enumerate counts /v1/enumerate, Batch counts /v1/batch
// requests and BatchProblems the problems inside them, Hypergraph and CSP
// count their endpoints, CSPSolves the csp requests that ran the solve/
// count DP payoff, and Diverse the requests (any endpoint) served in the
// ?diverse=k portfolio mode.
type WorkloadStats struct {
	Enumerate     uint64 `json:"enumerate"`
	Batch         uint64 `json:"batch"`
	BatchProblems uint64 `json:"batch_problems"`
	Hypergraph    uint64 `json:"hypergraph"`
	CSP           uint64 `json:"csp"`
	CSPSolves     uint64 `json:"csp_solves"`
	Diverse       uint64 `json:"diverse"`
}

// OrbitModeStats is the "orbits" block of GET /v1/stats: whether the mode
// is on by default, how many enumerate requests ran orbit-reduced, and
// the aggregated core counters of every orbit backend this server built
// (core.OrbitStats, flattened) — representatives vs skipped results give
// the realized stream-length reduction, and the trivial/inexact group
// counts how often the mode degraded to a passthrough. skipped_branches
// always reads 0 (see core.OrbitStats).
type OrbitModeStats struct {
	DefaultOn bool   `json:"default_on"`
	Requests  uint64 `json:"requests"`
	core.OrbitStats
}

// CanonStats is the "canon" block of GET /v1/stats: the canonical
// cache-keying funnel. Requests counts enumerate requests that went
// through the canonical labeling; Relabeled is how many of those arrived
// in a non-canonical labeling (i.e. an actual relabeling happened on
// ingress and an inverse one happens on every egress); Fallbacks is how
// many exhausted the labeling search budget and kept label-sensitive keys
// (correct, merely undeduplicated); Hits is how many relabeled requests
// were served by a solver or materialized stream that a *different*
// labeling of the same graph built — exactly the cache hits that
// label-sensitive keying would have missed.
type CanonStats struct {
	Requests  uint64 `json:"requests"`
	Relabeled uint64 `json:"relabeled"`
	Fallbacks uint64 `json:"fallbacks"`
	Hits      uint64 `json:"hits"`
}

// BackendStats counts enumerate requests served per backend kind.
// AutoResolved is how many of those were routed by the auto probe rather
// than an explicit backend choice (it overlaps the per-kind counts).
type BackendStats struct {
	DP           uint64 `json:"dp"`
	MIS          uint64 `json:"mis"`
	MISScored    uint64 `json:"mis_scored"`
	AutoResolved uint64 `json:"auto_resolved"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// resultJSON converts one enumeration result for the wire.
func resultJSON(g *graph.Graph, index int, r *core.Result) TriangulationJSON {
	bags := make([][]int, len(r.Bags))
	for i, b := range r.Bags {
		bags[i] = b.Slice()
	}
	seps := make([][]int, len(r.Seps))
	for i, s := range r.Seps {
		seps[i] = s.Slice()
	}
	return TriangulationJSON{
		Index:     index,
		Cost:      r.Cost,
		Width:     r.Tree.Width(),
		Fill:      r.H.NumEdges() - g.NumEdges(),
		OrbitSize: r.OrbitSize,
		Bags:      bags,
		Seps:      seps,
	}
}

// buildGraph materializes the request's graph plus, for hypergraph input,
// the hypergraph whose primal it is. Errors are client errors (400).
func buildGraph(req *EnumerateRequest, maxVertices int) (*graph.Graph, *hyper.Hypergraph, error) {
	hasG6 := req.Graph6 != ""
	hasHyper := len(req.Hyperedges) > 0
	// "n" alone is a valid edge-list source — the edgeless graph on n
	// vertices — but when another source is present, n merely names that
	// source's universe size.
	hasEdges := len(req.Edges) > 0 || (req.N > 0 && !hasG6 && !hasHyper)
	sources := 0
	for _, has := range []bool{hasG6, hasHyper, hasEdges} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, fmt.Errorf("exactly one of graph6, edges or hyperedges (or n for an edgeless graph) must be given")
	}

	if hasG6 {
		// Bound the claimed vertex count from the cheap header before the
		// O(n²) decode runs — a request body must not be able to buy an
		// oversized parse it could never enumerate.
		for _, line := range strings.Split(req.Graph6, "\n") {
			line = strings.TrimSpace(line)
			line = strings.TrimPrefix(line, ">>graph6<<")
			if line == "" {
				continue
			}
			n, err := graph.Graph6HeaderN(line)
			if err != nil {
				return nil, nil, fmt.Errorf("graph6: %v", err)
			}
			if n > maxVertices {
				return nil, nil, fmt.Errorf("graph has %d vertices; the limit is %d", n, maxVertices)
			}
		}
		gs, err := graph.ReadGraph6(strings.NewReader(req.Graph6))
		if err != nil {
			return nil, nil, fmt.Errorf("graph6: %v", err)
		}
		if len(gs) != 1 {
			return nil, nil, fmt.Errorf("graph6: want exactly one graph, got %d", len(gs))
		}
		return gs[0], nil, nil
	}

	universe := func(max int) (int, error) {
		n := req.N
		if n == 0 {
			n = max + 1
		}
		if max >= n {
			return 0, fmt.Errorf("vertex %d out of range for n=%d", max, n)
		}
		if n > maxVertices {
			return 0, fmt.Errorf("graph has %d vertices; the limit is %d", n, maxVertices)
		}
		return n, nil
	}

	if len(req.Hyperedges) > 0 {
		max := -1
		for _, e := range req.Hyperedges {
			if len(e) == 0 {
				return nil, nil, fmt.Errorf("empty hyperedge")
			}
			for _, v := range e {
				if v < 0 {
					return nil, nil, fmt.Errorf("negative vertex %d", v)
				}
				if v > max {
					max = v
				}
			}
		}
		n, err := universe(max)
		if err != nil {
			return nil, nil, err
		}
		h := hyper.New(n)
		for _, e := range req.Hyperedges {
			h.AddEdge(e...)
		}
		return h.Primal(), h, nil
	}

	max := -1
	for _, e := range req.Edges {
		if e[0] < 0 || e[1] < 0 {
			return nil, nil, fmt.Errorf("negative vertex in edge [%d,%d]", e[0], e[1])
		}
		if e[0] == e[1] {
			return nil, nil, fmt.Errorf("self loop [%d,%d]", e[0], e[1])
		}
		if e[0] > max {
			max = e[0]
		}
		if e[1] > max {
			max = e[1]
		}
	}
	n, err := universe(max)
	if err != nil {
		return nil, nil, err
	}
	g := graph.New(n)
	for _, e := range req.Edges {
		g.AddEdge(e[0], e[1])
	}
	return g, nil, nil
}

// buildCost resolves the request's cost name to a cost.Cost plus the
// canonical key fragment that, together with the graph fingerprint and
// width bound, identifies the solver in the pool. Parameterized costs
// (statespace domains, hypergraph edge sets) contribute their parameters
// to the key, since they change the ranking.
func buildCost(req *EnumerateRequest, g *graph.Graph, h *hyper.Hypergraph) (cost.Cost, string, error) {
	name := req.Cost
	if name == "" {
		name = "width"
	}
	switch name {
	case "width":
		return cost.Width{}, "width", nil
	case "fill":
		return cost.FillIn{}, "fill", nil
	case "lex", "width-fill":
		return cost.LexWidthFill{}, "lex", nil
	case "statespace":
		if req.Domains != nil && len(req.Domains) != g.Universe() {
			return nil, "", fmt.Errorf("domains has %d entries for %d vertices", len(req.Domains), g.Universe())
		}
		for _, d := range req.Domains {
			if d < 1 {
				return nil, "", fmt.Errorf("domain sizes must be positive")
			}
		}
		key := "statespace"
		if req.Domains != nil {
			key = fmt.Sprintf("statespace%v", req.Domains)
		}
		return cost.TotalStateSpace{Domain: req.Domains}, key, nil
	case "hypertree":
		if h == nil {
			return nil, "", fmt.Errorf("cost %q requires hyperedges input", name)
		}
		return h.HypertreeWidthCost(), "hypertree:" + hyperFingerprint(h), nil
	case "fractional-htw":
		if h == nil {
			return nil, "", fmt.Errorf("cost %q requires hyperedges input", name)
		}
		return h.FractionalHypertreeWidthCost(), "fractional-htw:" + hyperFingerprint(h), nil
	}
	return nil, "", fmt.Errorf("unknown cost %q", name)
}

// orbitCostCheck gates orbit mode on label-invariant costs. Collapsing an
// orbit to one representative is only sound when every member has the
// representative's cost — true of width, fill and their lexicographic
// combination, and of statespace under uniform (or default) domains, but
// false once per-vertex domains differ or the ranking reads a hypergraph
// (hypertree, fractional-htw): there, isomorphic triangulations rank
// differently and the collapse would hide real answers. Runs after
// buildCost, so unknown cost names are already rejected.
func orbitCostCheck(req *EnumerateRequest) error {
	name := req.Cost
	if name == "" {
		name = "width"
	}
	switch name {
	case "width", "fill", "lex", "width-fill":
		return nil
	case "statespace":
		for _, d := range req.Domains {
			if d != req.Domains[0] {
				return fmt.Errorf("orbit mode requires a label-invariant cost: statespace with non-uniform domains ranks isomorphic triangulations differently")
			}
		}
		return nil
	}
	return fmt.Errorf("orbit mode requires a label-invariant cost; %q is label-sensitive", name)
}

// hyperFingerprint hashes the hyperedge multiset (order-insensitively) so
// that distinct hypergraphs sharing a primal graph get distinct solver
// cache keys.
func hyperFingerprint(h *hyper.Hypergraph) string {
	keys := make([]string, 0, len(h.Edges()))
	for _, e := range h.Edges() {
		keys = append(keys, e.Key())
	}
	sort.Strings(keys)
	hash := sha256.New()
	for _, k := range keys {
		hash.Write([]byte(k))
		hash.Write([]byte{0})
	}
	return hex.EncodeToString(hash.Sum(nil)[:16])
}
