package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csp"
	"repro/internal/gen"
	"repro/internal/hyper"
)

// postJSON posts a body to an endpoint and returns the raw outcome; the
// caller owns status-code expectations.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeEnumerate(t *testing.T, data []byte) *EnumerateResponse {
	t.Helper()
	var out EnumerateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return &out
}

// edgesJSON renders a graph as the edge-list request fragment.
func edgesJSON(t *testing.T, edges [][2]int) string {
	t.Helper()
	data, err := json.Marshal(edges)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestKnobPrecedence pins the query > body > default resolution the
// shared knob helper gives every endpoint, on the backend and orbits
// knobs.
func TestKnobPrecedence(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultBackend: "dp"})
	g6 := cycleGraph6(t, 5)
	body := fmt.Sprintf(`{"graph6": %q, "backend": "mis"}`, g6)

	// Body field beats the server default.
	status, data := postJSON(t, ts, "/v1/enumerate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if resp := decodeEnumerate(t, data); resp.Backend != "mis" {
		t.Fatalf("body knob: backend %q, want mis", resp.Backend)
	}
	// Query knob beats the body field.
	status, data = postJSON(t, ts, "/v1/enumerate?backend=dp", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if resp := decodeEnumerate(t, data); resp.Backend != "dp" {
		t.Fatalf("query knob: backend %q, want dp", resp.Backend)
	}
	// Neither set: the server default.
	status, data = postJSON(t, ts, "/v1/enumerate", fmt.Sprintf(`{"graph6": %q}`, g6))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if resp := decodeEnumerate(t, data); resp.Backend != "dp" {
		t.Fatalf("default: backend %q, want dp", resp.Backend)
	}
	// A malformed query value is the canonical "bad <knob>" client error.
	status, data = postJSON(t, ts, "/v1/enumerate?orbits=maybe", body)
	if status != http.StatusBadRequest || !strings.Contains(string(data), "bad orbits") {
		t.Fatalf("bad orbits: status %d body %s", status, data)
	}
	status, data = postJSON(t, ts, "/v1/enumerate?diverse=x", body)
	if status != http.StatusBadRequest || !strings.Contains(string(data), "bad diverse") {
		t.Fatalf("bad diverse: status %d body %s", status, data)
	}
	// The query orbits knob rides through on every endpoint, e.g.
	// /v1/hypergraph rejects it for a hypergraph cost via the usual gate.
	status, data = postJSON(t, ts, "/v1/hypergraph?orbits=1", `{"hyperedges": [[0,1,2],[2,3]]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(data), "label-invariant") {
		t.Fatalf("hypergraph orbit gate: status %d body %s", status, data)
	}
}

// TestEnumerateWireShapeUnchanged pins the /v1/enumerate response to its
// pre-compile-layer key set: the new response fields (diverse, window,
// hypergraph, csp) must stay omitted on classic requests so the refactor
// is byte-invisible to existing clients.
func TestEnumerateWireShapeUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data := postJSON(t, ts, "/v1/enumerate",
		fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 2}`, cycleGraph6(t, 5)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"session": true, "done": true, "cache_hit": true, "cost": true,
		"backend": true, "ranked": true, "orbits": true, "graph": true,
		"solver": true, "results": true,
	}
	for k := range raw {
		if !allowed[k] {
			t.Fatalf("unexpected key %q leaked into the classic enumerate response: %s", k, data)
		}
	}
}

// TestDiverseResponseMode drives ?diverse=k end to end and oracles it
// against core.DiverseTopK on the same graph, cost and window.
func TestDiverseResponseMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := gen.Cycle(7) // Catalan(5) = 42 minimal triangulations
	g6 := cycleGraph6(t, 7)

	status, data := postJSON(t, ts, "/v1/enumerate?diverse=3",
		fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeEnumerate(t, data)
	if !resp.Done || resp.Session != "" {
		t.Fatalf("diverse responses are one-shot: done=%v session=%q", resp.Done, resp.Session)
	}
	if resp.Diverse != 3 || resp.Window != 12 {
		t.Fatalf("diverse/window = %d/%d, want 3/12", resp.Diverse, resp.Window)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Index != 0 {
		t.Fatalf("the optimum (rank 0) must lead, got index %d", resp.Results[0].Index)
	}
	// Indices are ranks into the underlying enumeration, strictly inside
	// the window.
	for _, r := range resp.Results[1:] {
		if r.Index <= 0 || r.Index >= 12 {
			t.Fatalf("index %d outside the (0, window) range", r.Index)
		}
	}
	// Oracle: the library-level DiverseTopK over the same window picks the
	// same cost multiset.
	s := mustSolver(g, cost.FillIn{})
	want := s.DiverseTopK(3, 12)
	for i, r := range resp.Results {
		if r.Cost != want[i].Cost {
			t.Fatalf("rank %d: cost %v, want %v", i, r.Cost, want[i].Cost)
		}
	}

	// A window larger than the finite stream truncates to what exists.
	status, data = postJSON(t, ts, "/v1/enumerate",
		fmt.Sprintf(`{"graph6": %q, "cost": "fill", "diverse": 3, "window": 100}`, cycleGraph6(t, 5)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp = decodeEnumerate(t, data)
	if resp.Window != 5 || len(resp.Results) != 3 {
		t.Fatalf("C5 window/results = %d/%d, want 5/3", resp.Window, len(resp.Results))
	}

	// k larger than the whole stream returns everything.
	status, data = postJSON(t, ts, "/v1/enumerate?diverse=9&window=100",
		fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, cycleGraph6(t, 5)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if resp = decodeEnumerate(t, data); len(resp.Results) != 5 {
		t.Fatalf("k beyond stream: %d results, want all 5", len(resp.Results))
	}

	// Contract errors.
	for body, wantSub := range map[string]string{
		fmt.Sprintf(`{"graph6": %q, "diverse": 2, "stream": true}`, g6): "cannot be combined with stream",
		fmt.Sprintf(`{"graph6": %q, "window": 8}`, g6):                  "window requires diverse",
		fmt.Sprintf(`{"graph6": %q, "diverse": 2, "window": 1}`, g6):    "window must be at least diverse",
		fmt.Sprintf(`{"graph6": %q, "diverse": -1}`, g6):                "diverse must be non-negative",
	} {
		status, data = postJSON(t, ts, "/v1/enumerate", body)
		if status != http.StatusBadRequest || !strings.Contains(string(data), wantSub) {
			t.Fatalf("%s: status %d body %s (want %q)", body, status, data, wantSub)
		}
	}
}

// TestBatchIsomorphicDedup is the batching payoff: N isomorphic problems
// in one batch cost one solver build — the canonical compile keys
// collapse them onto one pool entry and one materialized stream.
func TestBatchIsomorphicDedup(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const n = 6
	rng := rand.New(rand.NewSource(7))
	copies := gen.IsoCopies(rng, gen.Cycle(6), n)

	var problems []string
	for _, g := range copies {
		problems = append(problems,
			fmt.Sprintf(`{"edges": %s, "cost": "fill", "page_size": 4}`, edgesJSON(t, g.Edges())))
	}
	status, data := postJSON(t, ts, "/v1/batch",
		fmt.Sprintf(`{"problems": [%s]}`, strings.Join(problems, ",")))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var batch BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != n || batch.Errors != 0 {
		t.Fatalf("items=%d errors=%d, want %d/0", len(batch.Items), batch.Errors, n)
	}
	// Every member sees the identical ranked cost sequence (costs are
	// label-invariant; representatives differ by each client's labeling).
	first := batch.Items[0].Response
	if first == nil || len(first.Results) != 4 {
		t.Fatalf("bad first item: %+v", batch.Items[0])
	}
	for i, item := range batch.Items {
		if item.Response == nil {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		for j := range item.Response.Results {
			if item.Response.Results[j].Cost != first.Results[j].Cost {
				t.Fatalf("item %d rank %d: cost %v diverges from item 0's %v",
					i, j, item.Response.Results[j].Cost, first.Results[j].Cost)
			}
		}
	}

	// 1× solo cost: one solver built, every other member a pool hit; the
	// canon funnel recorded cross-labeling hits.
	stats := getStats(t, ts)
	if stats.Pool.Misses != 1 {
		t.Fatalf("pool misses = %d, want 1 (N isomorphic members must build once)", stats.Pool.Misses)
	}
	if stats.Pool.Hits != n-1 {
		t.Fatalf("pool hits = %d, want %d", stats.Pool.Hits, n-1)
	}
	if stats.Canon.Hits == 0 {
		t.Fatal("canon hits = 0: relabeled members did not ride the shared solver")
	}
	if stats.Workloads.Batch != 1 || stats.Workloads.BatchProblems != n {
		t.Fatalf("workload counters batch=%d problems=%d, want 1/%d",
			stats.Workloads.Batch, stats.Workloads.BatchProblems, n)
	}
	// Items are resumable sessions like any enumerate response.
	if first.Session == "" {
		t.Fatal("undone batch item carries no resume token")
	}
	next, code := getNext(t, ts, first.Session, 4)
	if code != http.StatusOK || len(next.Results) == 0 {
		t.Fatalf("batch item session next: code %d", code)
	}
	_ = srv
}

// TestBatchMixedOutcomes pins per-item error isolation: a bad member
// reports in place and never fails its neighbors, and batch-wide query
// knobs flow into every item through the shared compile layer.
func TestBatchMixedOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 4})
	g6 := cycleGraph6(t, 5)
	status, data := postJSON(t, ts, "/v1/batch?diverse=2",
		fmt.Sprintf(`{"problems": [
			{"graph6": %q, "cost": "fill"},
			{"graph6": "not-a-graph"},
			{"graph6": %q, "stream": true}
		]}`, g6, g6))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var batch BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Errors != 2 {
		t.Fatalf("errors = %d, want 2: %s", batch.Errors, data)
	}
	ok := batch.Items[0]
	if ok.Response == nil || ok.Response.Diverse != 2 || len(ok.Response.Results) != 2 {
		t.Fatalf("knobbed item: %+v (%s)", ok, data)
	}
	if batch.Items[1].Error == "" || batch.Items[2].Error == "" {
		t.Fatalf("bad members did not report: %s", data)
	}

	// Cap and emptiness are whole-batch client errors.
	status, data = postJSON(t, ts, "/v1/batch", `{"problems": []}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d %s", status, data)
	}
	five := strings.Repeat(fmt.Sprintf(`{"graph6": %q},`, g6), 4) + fmt.Sprintf(`{"graph6": %q}`, g6)
	status, data = postJSON(t, ts, "/v1/batch", `{"problems": [`+five+`]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(data), "limit is 4") {
		t.Fatalf("over-cap batch: status %d %s", status, data)
	}
}

// joinoptHypergraph is the examples/joinopt schema: six relations over
// nine attributes, the join-optimization oracle workload.
func joinoptHypergraph() *hyper.Hypergraph {
	h := hyper.New(9)
	h.AddEdge(0, 1, 2) // R
	h.AddEdge(2, 3)    // S
	h.AddEdge(3, 4, 5) // T
	h.AddEdge(5, 6)    // U
	h.AddEdge(6, 7, 0) // V
	h.AddEdge(7, 8)    // W
	return h
}

// TestHypergraphEndpointOracle replays the joinopt example through
// /v1/hypergraph and checks the ranked cost sequences against the
// library path it wraps, for both the default hypertree cost and an
// explicit lex override.
func TestHypergraphEndpointOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	h := joinoptHypergraph()
	hyperedges := `[[0,1,2],[2,3],[3,4,5],[5,6],[6,7,0],[7,8]]`

	oracle := func(c cost.Cost, k int) []float64 {
		t.Helper()
		s, err := core.New(context.Background(), h.Primal(), c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results := s.TopK(context.Background(), k)
		costs := make([]float64, len(results))
		for i, r := range results {
			costs[i] = r.Cost
		}
		return costs
	}

	status, data := postJSON(t, ts, "/v1/hypergraph",
		fmt.Sprintf(`{"hyperedges": %s, "page_size": 6}`, hyperedges))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeEnumerate(t, data)
	if resp.Cost != "hypertree-width" {
		t.Fatalf("default hypergraph cost %q, want hypertree-width", resp.Cost)
	}
	if resp.Hypergraph == nil || resp.Hypergraph.Vertices != 9 ||
		resp.Hypergraph.Hyperedges != 6 || resp.Hypergraph.PrimalEdges != h.Primal().NumEdges() {
		t.Fatalf("hypergraph info: %+v", resp.Hypergraph)
	}
	want := oracle(h.HypertreeWidthCost(), 6)
	if len(resp.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Cost != want[i] {
			t.Fatalf("hypertree rank %d: cost %v, want %v", i, r.Cost, want[i])
		}
	}

	// The cost knob stays open: lex ranking over the same primal graph.
	status, data = postJSON(t, ts, "/v1/hypergraph",
		fmt.Sprintf(`{"hyperedges": %s, "cost": "lex", "page_size": 6}`, hyperedges))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp = decodeEnumerate(t, data)
	want = oracle(cost.LexWidthFill{}, 6)
	for i, r := range resp.Results {
		if r.Cost != want[i] {
			t.Fatalf("lex rank %d: cost %v, want %v", i, r.Cost, want[i])
		}
	}

	// Input contract: hyperedges only, and hyperedges required.
	status, data = postJSON(t, ts, "/v1/hypergraph", `{"graph6": "DqK"}`)
	if status != http.StatusBadRequest || !strings.Contains(string(data), "requires hyperedges") {
		t.Fatalf("graph6 to hypergraph: status %d %s", status, data)
	}
	status, data = postJSON(t, ts, "/v1/hypergraph",
		fmt.Sprintf(`{"hyperedges": %s, "edges": [[0,1]]}`, hyperedges))
	if status != http.StatusBadRequest || !strings.Contains(string(data), "hyperedges only") {
		t.Fatalf("mixed sources: status %d %s", status, data)
	}
}

// bayesCSP models the examples/bayes moral graph as a CSP whose
// constraints allow every combination: the constraint graph is exactly
// the moral graph, the statespace ranking matches the example's, and the
// solution count is the full joint state space.
func bayesCSP() (domains []int, constraints string, jointSize int64) {
	domains = []int{8, 3, 6, 6, 2, 2, 2, 2, 3, 3}
	edges := [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {2, 5}, {3, 6}, {3, 7}, {2, 7}, {4, 8}, {5, 8}, {6, 9}, {3, 9}}
	var cs []string
	for _, e := range edges {
		var tuples []string
		for a := 0; a < domains[e[0]]; a++ {
			for b := 0; b < domains[e[1]]; b++ {
				tuples = append(tuples, fmt.Sprintf("[%d,%d]", a, b))
			}
		}
		cs = append(cs, fmt.Sprintf(`{"scope": [%d,%d], "allowed": [%s]}`, e[0], e[1], strings.Join(tuples, ",")))
	}
	jointSize = 1
	for _, d := range domains {
		jointSize *= int64(d)
	}
	return domains, "[" + strings.Join(cs, ",") + "]", jointSize
}

// TestCSPEndpointBayesOracle replays the examples/bayes workload through
// /v1/csp: the ranked statespace order must match the direct library
// solve over the moral graph, and the all-allowed constraint count must
// equal the joint state space.
func TestCSPEndpointBayesOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	domains, constraints, joint := bayesCSP()
	domJSON, _ := json.Marshal(domains)

	status, data := postJSON(t, ts, "/v1/csp",
		fmt.Sprintf(`{"domains": %s, "constraints": %s, "page_size": 5, "count": true}`, domJSON, constraints))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeEnumerate(t, data)
	if resp.Cost != "state-space" {
		t.Fatalf("default csp cost %q, want state-space", resp.Cost)
	}

	// Oracle ranking: the direct bayes-example path — statespace cost over
	// the moral (= constraint) graph.
	p := csp.NewProblem(domains)
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {2, 5}, {3, 6}, {3, 7}, {2, 7}, {4, 8}, {5, 8}, {6, 9}, {3, 9}} {
		p.AllowFunc(e[0], e[1], func(a, b int) bool { return true })
	}
	s, err := core.New(context.Background(), p.ConstraintGraph(), cost.TotalStateSpace{Domain: domains}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := s.TopK(context.Background(), 5)
	if len(resp.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Cost != want[i].Cost {
			t.Fatalf("rank %d: cost %v, want %v", i, r.Cost, want[i].Cost)
		}
	}

	// All-allowed constraints: every assignment satisfies, so the count is
	// the joint state space — and it must agree with the library DP run
	// over the same top-ranked decomposition.
	if resp.CSP == nil || resp.CSP.Count == nil {
		t.Fatalf("no csp count block: %s", data)
	}
	if *resp.CSP.Count != joint || !resp.CSP.Satisfiable {
		t.Fatalf("count = %d satisfiable=%v, want %d/true", *resp.CSP.Count, resp.CSP.Satisfiable, joint)
	}
}

// TestCSPSolveCountAndUnsat covers the payoff semantics on a real
// constraint structure: proper 3-colorings of C5 (30 of them), assignment
// validity, and — via an empty allowed set — a definitively unsatisfiable
// problem, the case csp.Constrain exists for.
func TestCSPSolveCountAndUnsat(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// C5 3-coloring: chromatic polynomial gives (3-1)^5 - 2 = 30.
	neq := func(x, y int) string {
		var tuples []string
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				if a != b {
					tuples = append(tuples, fmt.Sprintf("[%d,%d]", a, b))
				}
			}
		}
		return fmt.Sprintf(`{"scope": [%d,%d], "allowed": [%s]}`, x, y, strings.Join(tuples, ","))
	}
	body := fmt.Sprintf(`{"domains": [3,3,3,3,3], "constraints": [%s,%s,%s,%s,%s], "solve": true, "count": true}`,
		neq(0, 1), neq(1, 2), neq(2, 3), neq(3, 4), neq(4, 0))
	status, data := postJSON(t, ts, "/v1/csp", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeEnumerate(t, data)
	if resp.CSP == nil || resp.CSP.Count == nil {
		t.Fatalf("no csp block: %s", data)
	}
	if *resp.CSP.Count != 30 {
		t.Fatalf("C5 3-colorings = %d, want 30", *resp.CSP.Count)
	}
	if !resp.CSP.Satisfiable || len(resp.CSP.Assignment) != 5 {
		t.Fatalf("bad solution: %+v", resp.CSP)
	}
	asg := resp.CSP.Assignment
	for i := 0; i < 5; i++ {
		if asg[i] == asg[(i+1)%5] {
			t.Fatalf("assignment %v violates edge (%d,%d)", asg, i, (i+1)%5)
		}
	}

	// An empty allowed set is a real constraint admitting nothing.
	status, data = postJSON(t, ts, "/v1/csp",
		`{"domains": [2,2], "constraints": [{"scope": [0,1], "allowed": []}], "solve": true, "count": true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp = decodeEnumerate(t, data)
	if resp.CSP == nil || resp.CSP.Satisfiable || resp.CSP.Count == nil || *resp.CSP.Count != 0 {
		t.Fatalf("empty-allowed constraint not honored: %s", data)
	}

	// Validation errors.
	for body, wantSub := range map[string]string{
		`{"domains": []}`:    "at least one variable",
		`{"domains": [2,0]}`: "non-positive domain",
		`{"domains": [2,2], "constraints": [{"scope": [0,5]}]}`:                     "out of range",
		`{"domains": [2,2], "constraints": [{"scope": [1,1]}]}`:                     "unary scope",
		`{"domains": [3,3], "constraints": [{"scope": [0,1], "allowed": [[0,7]]}]}`: "out of domain range",
	} {
		status, data = postJSON(t, ts, "/v1/csp", body)
		if status != http.StatusBadRequest || !strings.Contains(string(data), wantSub) {
			t.Fatalf("%s: status %d body %s (want %q)", body, status, data, wantSub)
		}
	}
}

// TestMaxBodyBytes pins the configurable request-body cap: an over-long
// body is 413, and the daemon-facing knob genuinely moves the limit.
func TestMaxBodyBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	long := fmt.Sprintf(`{"graph6": %q, "cost": %q}`, cycleGraph6(t, 5), strings.Repeat("x", 256))
	status, data := postJSON(t, ts, "/v1/enumerate", long)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", status, data)
	}
	short := fmt.Sprintf(`{"graph6": %q}`, cycleGraph6(t, 5))
	if status, data = postJSON(t, ts, "/v1/enumerate", short); status != http.StatusOK {
		t.Fatalf("small body under a small cap: status %d %s", status, data)
	}
}

// TestEndpointsFailAlike pins that /v1/enumerate, /v1/hypergraph and
// /v1/csp, which share one request pipeline, fail alike at each of its
// stages: a compile error is a 400, a context cancelled while queued for
// the only admission slot a 503, and a solver init past its budget a 503
// naming the MIS escape. /v1/batch queues the same way and carries the
// same init error in its item.
func TestEndpointsFailAlike(t *testing.T) {
	const initErr = "solver initialization failed (consider ?backend=mis)"
	cycle := `[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]`
	constraints := make([]string, 6)
	for i := range constraints {
		constraints[i] = fmt.Sprintf(`{"scope": [%d,%d], "allowed": [[0,1],[1,0]]}`, i, (i+1)%6)
	}
	type probe struct{ path, body string }
	endpoints := []probe{
		{"/v1/enumerate", `{"edges": ` + cycle + `, "cost": "fill"}`},
		{"/v1/hypergraph", `{"hyperedges": ` + cycle + `}`},
		{"/v1/csp", `{"domains": [2,2,2,2,2,2], "constraints": [` + strings.Join(constraints, ",") + `], "solve": true}`},
	}
	batch := `{"problems": [` + endpoints[0].body + `]}`

	t.Run("init budget", func(t *testing.T) {
		_, ts := newTestServer(t, Config{InitTimeout: time.Nanosecond})
		for _, ep := range endpoints {
			status, data := postJSON(t, ts, ep.path, ep.body)
			if status != http.StatusServiceUnavailable || !strings.Contains(string(data), initErr) {
				t.Errorf("%s: want 503 %q, got %d: %s", ep.path, initErr, status, data)
			}
		}
		status, data := postJSON(t, ts, "/v1/batch", batch)
		var resp BatchResponse
		if err := json.Unmarshal(data, &resp); err != nil || status != http.StatusOK {
			t.Fatalf("/v1/batch: status %d, %v: %s", status, err, data)
		}
		if len(resp.Items) != 1 || !strings.Contains(resp.Items[0].Error, initErr) {
			t.Errorf("/v1/batch: want the item to carry %q, got %s", initErr, data)
		}
	})

	t.Run("compile error", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		for _, ep := range endpoints {
			status, data := postJSON(t, ts, ep.path+"?backend=bogus", ep.body)
			if status != http.StatusBadRequest || !strings.Contains(string(data), "unknown backend") {
				t.Errorf("%s?backend=bogus: want 400 naming the backend, got %d: %s", ep.path, status, data)
			}
		}
	})

	t.Run("admission cancelled", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
		release, err := srv.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, ep := range append(endpoints, probe{"/v1/batch", batch}) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			cancel()
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "waiting for admission") {
				t.Errorf("%s with the only slot held: want 503 while waiting for admission, got %d: %s", ep.path, rec.Code, rec.Body)
			}
		}
	})
}
