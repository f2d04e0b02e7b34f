package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// legacyResultJSON is the wire conversion egress used before it read
// canonical results directly: r must already be in the client's labels.
// With core.RelabelResult in front of it (legacyLine) it is the reference
// the one-pass egress must match byte for byte.
func legacyResultJSON(g *graph.Graph, index int, r *core.Result) TriangulationJSON {
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

// egressRef is the reference side of one problem: the problem compiled
// as the server compiles it, and a handle on the canonical stream the
// server serves it from.
type egressRef struct {
	t  *testing.T
	cp *CompiledProblem
	h  *StreamHandle
}

// newEgressRef compiles req (with query knobs query) on srv and acquires
// its stream.
func newEgressRef(t *testing.T, srv *Server, req EnumerateRequest, query string) *egressRef {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := srv.compileProblem(&req, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.buildBackend(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	h := srv.streams.Acquire(cp.Key, cp.Engine)
	t.Cleanup(h.Release)
	return &egressRef{t: t, cp: cp, h: h}
}

// result returns the canonical stream result at rank i.
func (e *egressRef) result(i int) *core.Result {
	e.t.Helper()
	r, ok, err := e.h.At(context.Background(), i)
	if err != nil || !ok {
		e.t.Fatalf("reference stream rank %d: ok=%v err=%v", i, ok, err)
	}
	return r
}

// legacyLine renders r at rank index the old way: core.RelabelResult into
// the client's labels, then the old conversion.
func (e *egressRef) legacyLine(index int, r *core.Result) string {
	e.t.Helper()
	if e.cp.FromCanon != nil {
		r = core.RelabelResult(r, e.cp.FromCanon)
	}
	b, err := json.Marshal(legacyResultJSON(e.cp.ClientGraph, index, r))
	if err != nil {
		e.t.Fatal(err)
	}
	return string(b)
}

// check compares the n wire results served from rank start on with the
// reference, byte for byte.
func (e *egressRef) check(path string, start, n int, got []json.RawMessage) {
	e.t.Helper()
	if len(got) != n {
		e.t.Fatalf("%s: %d results, want %d", path, len(got), n)
	}
	for i, raw := range got {
		if want := e.legacyLine(start+i, e.result(start+i)); string(raw) != want {
			e.t.Fatalf("%s, rank %d:\n got %s\nwant %s", path, start+i, raw, want)
		}
	}
}

// rawResponse is an EnumerateResponse whose results (and csp block) keep
// their exact wire bytes.
type rawResponse struct {
	Session string            `json:"session"`
	Done    bool              `json:"done"`
	Results []json.RawMessage `json:"results"`
	CSP     json.RawMessage   `json:"csp"`
}

func fetchRaw(t *testing.T, ts *httptest.Server, method, path, body string) rawResponse {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	var out rawResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEgressMatchesRelabelPath is the differential test of one-pass
// egress: over relabeled templates, every read path — first page, next,
// replay, NDJSON, diverse and batch — must put on the wire exactly the
// bytes the old path (core.RelabelResult, then the old conversion)
// renders from the same canonical stream. The templates include a
// statespace problem with distinct per-vertex domains, an orbit-reduced
// problem, and a client that submits canonical labels (no relabeling).
func TestEgressMatchesRelabelPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(16))
	edgeReq := func(g *graph.Graph, costName string) EnumerateRequest {
		return EnumerateRequest{N: g.Universe(), Edges: g.Edges(), Cost: costName}
	}
	canonC9, _, _ := gen.Cycle(9).CanonicalForm()
	petersen, err := gen.Named("petersen")
	if err != nil {
		t.Fatal(err)
	}
	ss := gen.Relabel(rng, gen.ConnectedGNP(rng, 10, 0.35))
	ssReq := edgeReq(ss, "statespace")
	for v := 0; v < ss.Universe(); v++ {
		ssReq.Domains = append(ssReq.Domains, 2+v%4)
	}
	orbits := true
	orbitReq := edgeReq(gen.Relabel(rng, gen.Cycle(10)), "fill")
	orbitReq.Orbits = &orbits
	cases := []struct {
		name      string
		req       EnumerateRequest
		canonical bool
	}{
		{"C9 fill", edgeReq(gen.Relabel(rng, gen.Cycle(9)), "fill"), false},
		{"TreePlusChords(40,3) fill", edgeReq(gen.Relabel(rng, gen.TreePlusChords(rng, 40, 3)), "fill"), false},
		{"GNP(10) statespace, distinct domains", ssReq, false},
		{"C10 fill, orbits", orbitReq, false},
		{"petersen width", edgeReq(gen.Relabel(rng, petersen), "width"), false},
		{"canonical C9 lex", edgeReq(canonC9, "lex"), true},
	}
	const pageSize, streamMax, diverseK, window = 7, 30, 4, 20
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newEgressRef(t, srv, tc.req, "")
			if got := ref.cp.FromCanon == nil; got != tc.canonical {
				t.Fatalf("FromCanon nil = %v, want %v", got, tc.canonical)
			}
			body := func(mod func(*EnumerateRequest)) string {
				req := tc.req
				mod(&req)
				b, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}

			// First page, two next pages, then a replay of the second page.
			first := fetchRaw(t, ts, "POST", "/v1/enumerate", body(func(r *EnumerateRequest) { r.PageSize = pageSize }))
			ref.check("first page", 0, pageSize, first.Results)
			if tc.req.Orbits != nil && !strings.Contains(string(first.Results[0]), `"orbit_size"`) {
				t.Fatalf("orbit-reduced results carry no orbit_size: %s", first.Results[0])
			}
			if first.Session == "" {
				t.Fatal("the template must outlast its first page")
			}
			next := fmt.Sprintf("/v1/sessions/%s/next?page_size=%d", first.Session, pageSize)
			for p := 1; p <= 2; p++ {
				page := fetchRaw(t, ts, "GET", next, "")
				ref.check(fmt.Sprintf("next page %d", p), p*pageSize, pageSize, page.Results)
			}
			replay := fetchRaw(t, ts, "GET", fmt.Sprintf("%s&from=%d", next, pageSize), "")
			ref.check("replay", pageSize, pageSize, replay.Results)

			// NDJSON: every line but the summary is one result.
			resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json",
				strings.NewReader(body(func(r *EnumerateRequest) { r.Stream, r.MaxResults = true, streamMax })))
			if err != nil {
				t.Fatal(err)
			}
			var lines []json.RawMessage
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				if line := sc.Bytes(); !strings.Contains(string(line), `"count"`) {
					lines = append(lines, append(json.RawMessage(nil), line...))
				}
			}
			resp.Body.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			ref.check("ndjson", 0, streamMax, lines)

			// Diverse: the reference picks from the same window.
			div := fetchRaw(t, ts, "POST", fmt.Sprintf("/v1/enumerate?diverse=%d&window=%d", diverseK, window), body(func(*EnumerateRequest) {}))
			var pool []*core.Result
			for i := 0; i < window; i++ {
				pool = append(pool, ref.result(i))
			}
			picks := core.DiverseSelect(ref.cp.Graph, pool, diverseK)
			if len(div.Results) != len(picks) {
				t.Fatalf("diverse: %d results, reference %d", len(div.Results), len(picks))
			}
			for i, j := range picks {
				if want := ref.legacyLine(j, pool[j]); string(div.Results[i]) != want {
					t.Fatalf("diverse pick %d:\n got %s\nwant %s", i, div.Results[i], want)
				}
			}

			// Batch: one item per problem, each a first page.
			var batch struct {
				Items []struct {
					Response *rawResponse `json:"response"`
				} `json:"items"`
			}
			resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
				strings.NewReader(fmt.Sprintf(`{"problems": [%s]}`, body(func(r *EnumerateRequest) { r.PageSize = pageSize }))))
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&batch)
			resp.Body.Close()
			if err != nil || len(batch.Items) != 1 || batch.Items[0].Response == nil {
				t.Fatalf("batch: %+v (%v)", batch, err)
			}
			ref.check("batch", 0, pageSize, batch.Items[0].Response.Results)
		})
	}
}

// TestEgressCSPMatchesRelabelPath is the /v1/csp half of the differential
// egress test: a relabeled CSP with distinct domains, solved and counted
// over its top-ranked decomposition. The page and the payoff block must
// match the old path, which relabeled the whole page and ran the DP over
// the relabeled top result's tree.
func TestEgressCSPMatchesRelabelPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(61))
	g := gen.Relabel(rng, gen.Cycle(8)) // Catalan(6) = 132 decompositions to rank
	req := CSPRequest{Solve: true, Count: true, PageSize: 5}
	for v := 0; v < g.Universe(); v++ {
		req.Domains = append(req.Domains, 2+v%3)
	}
	for _, e := range g.Edges() {
		c := CSPConstraint{Scope: e}
		for a := 0; a < req.Domains[e[0]]; a++ {
			for b := 0; b < req.Domains[e[1]]; b++ {
				if a != b || rng.Intn(4) == 0 {
					c.Allowed = append(c.Allowed, [2]int{a, b})
				}
			}
		}
		req.Constraints = append(req.Constraints, c)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got := fetchRaw(t, ts, "POST", "/v1/csp", string(body))

	// The reference compiles the enumerate request the handler builds.
	p, err := buildCSP(&req, 128)
	if err != nil {
		t.Fatal(err)
	}
	ref := newEgressRef(t, srv, EnumerateRequest{
		N: len(p.Domains), Edges: p.ConstraintGraph().Edges(), Cost: "statespace",
		Domains: append([]int(nil), req.Domains...), PageSize: req.PageSize,
	}, "")
	if ref.cp.FromCanon == nil {
		t.Fatal("the relabeled CSP compiled to canonical labels; the test needs a relabeling")
	}
	ref.check("csp page", 0, req.PageSize, got.Results)
	top := core.RelabelResult(ref.result(0), ref.cp.FromCanon).Tree
	n, err := p.Count(top)
	if err != nil {
		t.Fatal(err)
	}
	asg, ok, err := p.Solve(top)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&CSPSolutionJSON{Satisfiable: ok, Assignment: asg, Count: &n})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.CSP) != string(want) {
		t.Fatalf("csp payoff:\n got %s\nwant %s", got.CSP, want)
	}
}
