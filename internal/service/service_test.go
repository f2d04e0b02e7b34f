package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// cycleGraph6 returns the graph6 line for the n-cycle. C_n has
// Catalan(n-2) minimal triangulations (polygon triangulations), which the
// lifecycle tests rely on: C5 → 5, C6 → 14.
func cycleGraph6(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteGraph6(&buf, gen.Cycle(n)); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

func postEnumerate(t *testing.T, ts *httptest.Server, body string) (*EnumerateResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("enumerate: status %d: %s", resp.StatusCode, data)
	}
	var out EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

func getNext(t *testing.T, ts *httptest.Server, token string, pageSize int) (*EnumerateResponse, int) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/sessions/%s/next", ts.URL, token)
	if pageSize > 0 {
		url += fmt.Sprintf("?page_size=%d", pageSize)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func getStats(t *testing.T, ts *httptest.Server) *StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// mustSolver builds an unbounded solver over a background context, which
// cannot fail.
func mustSolver(g *graph.Graph, c cost.Cost) *core.Solver {
	s, err := core.New(context.Background(), g, c, core.Options{})
	if err != nil {
		panic(err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestEnumerateResumeExhaust drives the full lifecycle over HTTP: first
// page with a resume token, paging until exhaustion, token invalidation
// afterwards, and cost monotonicity across pages.
func TestEnumerateResumeExhaust(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 5) // 5 minimal triangulations

	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 2}`, g6))
	if first.Done || first.Session == "" {
		t.Fatalf("want live session after first page, got done=%v session=%q", first.Done, first.Session)
	}
	if len(first.Results) != 2 {
		t.Fatalf("first page: want 2 results, got %d", len(first.Results))
	}
	if first.Graph == nil || first.Graph.N != 5 || first.Graph.Fingerprint == "" {
		t.Fatalf("bad graph info: %+v", first.Graph)
	}
	if first.Solver == nil || first.Solver.PMCs == 0 {
		t.Fatalf("bad solver info: %+v", first.Solver)
	}

	all := append([]TriangulationJSON(nil), first.Results...)
	token := first.Session
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("enumeration did not exhaust")
		}
		page, status := getNext(t, ts, token, 2)
		if status != http.StatusOK {
			t.Fatalf("next: status %d", status)
		}
		all = append(all, page.Results...)
		if page.Done {
			if page.Session != "" {
				t.Fatal("done page should not carry a session token")
			}
			break
		}
	}
	if len(all) != 5 {
		t.Fatalf("C5: want 5 minimal triangulations, got %d", len(all))
	}
	for i := range all {
		if all[i].Index != i {
			t.Fatalf("result %d has index %d", i, all[i].Index)
		}
		if i > 0 && all[i].Cost < all[i-1].Cost {
			t.Fatalf("costs not non-decreasing: %g after %g", all[i].Cost, all[i-1].Cost)
		}
	}

	if _, status := getNext(t, ts, token, 0); status != http.StatusNotFound {
		t.Fatalf("exhausted token should 404, got %d", status)
	}
	if stats := getStats(t, ts); stats.Sessions.Live != 0 {
		t.Fatalf("no session should remain, got %d", stats.Sessions.Live)
	}
}

// TestCacheHitOnResubmission submits the same graph twice and expects the
// second request to be served from the solver pool.
func TestCacheHitOnResubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	body := fmt.Sprintf(`{"graph6": %q, "page_size": 3}`, g6)

	first, _ := postEnumerate(t, ts, body)
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	second, _ := postEnumerate(t, ts, body)
	if !second.CacheHit {
		t.Fatal("second submission of the same graph should hit the solver cache")
	}
	stats := getStats(t, ts)
	if stats.Pool.Hits < 1 || stats.Pool.Misses < 1 {
		t.Fatalf("stats should record the hit and the miss: %+v", stats.Pool)
	}
	// Different cost => different solver => miss.
	third, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if third.CacheHit {
		t.Fatal("different cost must not share a solver")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"invalid graph6":       `{"graph6": "@@##notgraph6"}`,
		"no source":            `{"cost": "width"}`,
		"two sources":          `{"graph6": "D?{", "edges": [[0,1]]}`,
		"self loop":            `{"edges": [[1,1]]}`,
		"out of range":         `{"n": 2, "edges": [[0,5]]}`,
		"unknown cost":         `{"edges": [[0,1]], "cost": "nope"}`,
		"bad domains":          `{"edges": [[0,1]], "cost": "statespace", "domains": [2]}`,
		"hyper cost":           `{"edges": [[0,1]], "cost": "hypertree"}`,
		"negative bound":       `{"edges": [[0,1]], "bound": -2}`,
		"not json":             `hello`,
		"empty hyperedge":      `{"hyperedges": [[]]}`,
		"too many verts":       `{"n": 4096, "edges": [[0,1]]}`,
		"negative max_results": `{"edges": [[0,1]], "stream": true, "max_results": -1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
}

// TestSessionEviction parks a session past the idle timeout and expects
// the janitor to evict it.
func TestSessionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	if first.Session == "" {
		t.Fatal("want a live session")
	}
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts).Sessions.Expired < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session was not evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats := getStats(t, ts); stats.Sessions.Live != 0 {
		t.Fatalf("no session should remain: %+v", stats.Sessions)
	}
	if _, status := getNext(t, ts, first.Session, 1); status != http.StatusNotFound {
		t.Fatalf("evicted token should 404, got %d", status)
	}
}

// TestCancelledEnumerateLeavesNoSession serves an enumerate request whose
// context is already cancelled and checks no session leaks.
func TestCancelledEnumerateLeavesNoSession(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5))
	req := httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled request should not succeed, got %d: %s", w.Code, w.Body)
	}
	if live := srv.sessions.Stats().Live; live != 0 {
		t.Fatalf("cancelled request left %d live sessions", live)
	}
}

// TestStreamNDJSON checks the streaming mode: every result on its own
// line, a final summary line, and no session created.
func TestStreamNDJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true}`, cycleGraph6(t, 5))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("want NDJSON content type, got %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 { // 5 results + summary
		t.Fatalf("want 6 NDJSON lines, got %d: %s", len(lines), data)
	}
	var last struct {
		Done  bool `json:"done"`
		Count int  `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Done || last.Count != 5 {
		t.Fatalf("bad summary line: %s", lines[len(lines)-1])
	}
	if live := srv.sessions.Stats().Live; live != 0 {
		t.Fatalf("streaming must not create sessions, got %d", live)
	}
}

// TestStreamMaxResults truncates a stream after max_results.
func TestStreamMaxResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true, "max_results": 2}`, cycleGraph6(t, 6))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 results + summary, got %d lines", len(lines))
	}
}

// TestEdgeListAndCosts smoke-tests the edge-list input and each cost.
func TestEdgeListAndCosts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	edges := `"edges": [[0,1],[1,2],[2,3],[3,0]]`
	for _, c := range []string{"width", "fill", "lex", "statespace"} {
		resp, _ := postEnumerate(t, ts, fmt.Sprintf(`{%s, "cost": %q, "page_size": 10}`, edges, c))
		if len(resp.Results) != 2 { // C4 has exactly 2 minimal triangulations
			t.Fatalf("cost %s: want 2 results, got %d", c, len(resp.Results))
		}
		if !resp.Done {
			t.Fatalf("cost %s: C4 should exhaust in one page", c)
		}
	}
}

// TestHypergraphCosts enumerates a hypergraph by hypertree width.
func TestHypergraphCosts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"hyperedges": [[0,1,2],[2,3],[3,4,0]], "cost": "hypertree", "page_size": 50}`
	resp, _ := postEnumerate(t, ts, body)
	if len(resp.Results) == 0 {
		t.Fatal("hypergraph enumeration returned nothing")
	}
	if resp.Cost != "hypertree-width" {
		t.Fatalf("want hypertree-width cost, got %q", resp.Cost)
	}
}

// TestBoundedEnumeration checks the width bound reaches MinTriangB.
func TestBoundedEnumeration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "bound": 2, "page_size": 100}`, cycleGraph6(t, 6))
	resp, _ := postEnumerate(t, ts, body)
	for _, r := range resp.Results {
		if r.Width > 2 {
			t.Fatalf("bound violated: width %d", r.Width)
		}
	}
	if len(resp.Results) == 0 {
		t.Fatal("C6 has width-2 triangulations")
	}
}

// TestSessionInfoAndDelete covers the metadata and early-close endpoints.
func TestSessionInfoAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	resp, err := http.Get(ts.URL + "/v1/sessions/" + first.Session)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Emitted != 1 {
		t.Fatalf("want 1 emitted, got %d", info.Emitted)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+first.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", dresp.StatusCode)
	}
	if _, status := getNext(t, ts, first.Session, 0); status != http.StatusNotFound {
		t.Fatalf("deleted session should 404, got %d", status)
	}
}

// TestPoolSingleflight hammers one key concurrently and expects exactly
// one initialization.
func TestPoolSingleflight(t *testing.T) {
	pool := NewSolverPool(4)
	g := gen.Cycle(6)
	key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
	builds := make(chan struct{}, 64)
	const callers = 16
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := pool.Get(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
				builds <- struct{}{}
				return core.New(ctx, g, cost.Width{}, core.Options{})
			})
			errc <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(builds); n != 1 {
		t.Fatalf("want exactly 1 build, got %d", n)
	}
	if stats := pool.Stats(); stats.Misses != 1 || stats.Hits != callers-1 {
		t.Fatalf("bad stats: %+v", stats)
	}
}

// TestPoolEviction fills the pool past capacity and expects LRU eviction.
func TestPoolEviction(t *testing.T) {
	pool := NewSolverPool(2)
	for n := 4; n <= 7; n++ {
		g := gen.Cycle(n)
		key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
		if _, _, err := pool.Get(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
			return core.New(ctx, g, cost.Width{}, core.Options{})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() != 2 {
		t.Fatalf("want 2 cached solvers, got %d", pool.Len())
	}
	if stats := pool.Stats(); stats.Evictions != 2 {
		t.Fatalf("want 2 evictions, got %+v", stats)
	}
}

// TestPoolAbandonedInit cancels the only waiter of an in-flight build and
// expects the build context to be cancelled with it.
func TestPoolAbandonedInit(t *testing.T) {
	pool := NewSolverPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	cancelled := make(chan struct{})
	go func() {
		pool.Get(ctx, SolverKey{Fingerprint: "x"}, func(bctx context.Context) (*core.Solver, error) {
			close(started)
			<-bctx.Done()
			close(cancelled)
			return nil, bctx.Err()
		})
	}()
	<-started
	cancel()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("build context was not cancelled after its last waiter left")
	}
}

// TestEdgelessGraph accepts {"n": k} as the edgeless graph on k vertices.
func TestEdgelessGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postEnumerate(t, ts, `{"n": 3, "page_size": 5}`)
	if len(resp.Results) == 0 || !resp.Done {
		t.Fatalf("edgeless graph should enumerate to completion: %+v", resp)
	}
	if resp.Graph.N != 3 || resp.Graph.M != 0 {
		t.Fatalf("bad graph info: %+v", resp.Graph)
	}
}

// TestOversizedDefaultPageSize clamps a configured page size above the
// hard cap.
func TestOversizedDefaultPageSize(t *testing.T) {
	srv := New(Config{PageSize: 50000})
	defer srv.Close()
	if srv.cfg.PageSize != maxPageSize {
		t.Fatalf("configured page size should clamp to %d, got %d", maxPageSize, srv.cfg.PageSize)
	}
}

// TestStreamTruncation marks a stream cut off by the lifetime budget as
// not done.
func TestStreamTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamTimeout: time.Nanosecond})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true}`, cycleGraph6(t, 6))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last struct {
		Done      bool `json:"done"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Done || !last.Truncated {
		t.Fatalf("budget-cut stream must report truncation, got %s", lines[len(lines)-1])
	}
}

// TestNextPageRedelivery cancels a paging request mid-page and checks the
// pulled results are redelivered (not lost) on the retry.
func TestNextPageRedelivery(t *testing.T) {
	m := NewSessionManager(4, time.Minute, nil)
	defer m.Close()
	solver := mustSolver(gen.Cycle(5), cost.Width{})
	sess, err := m.Create(solver, SolverKey{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, results, _, err := sess.NextPage(cancelled, 2); err == nil || results != nil {
		t.Fatalf("cancelled page should error without results, got %v, %v", results, err)
	}
	start, results, done, err := sess.NextPage(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || len(results) != 5 || !done {
		t.Fatalf("retry should deliver the full stream from rank 0: start=%d n=%d done=%v", start, len(results), done)
	}
}

// TestNextPageAfterEviction distinguishes eviction from exhaustion.
func TestNextPageAfterEviction(t *testing.T) {
	m := NewSessionManager(4, time.Minute, nil)
	defer m.Close()
	solver := mustSolver(gen.Cycle(5), cost.Width{})
	sess, err := m.Create(solver, SolverKey{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Remove(sess.Token) // cancels the session context
	if _, _, done, err := sess.NextPage(context.Background(), 2); !errors.Is(err, ErrSessionNotFound) || done {
		t.Fatalf("evicted session must report ErrSessionNotFound, not done=%v err=%v", done, err)
	}
}

// TestCreateAfterClose reports shutdown, not a bogus missing session.
func TestCreateAfterClose(t *testing.T) {
	m := NewSessionManager(4, time.Minute, nil)
	m.Close()
	solver := mustSolver(gen.Cycle(4), cost.Width{})
	if _, err := m.Create(solver, SolverKey{}, nil, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
}

// TestCreateRejectionLeavesStoreUntouched: a Create refused for the
// session cap (429) or for shutdown (503) must not reach the stream
// store — no miss counted, and no cached stream evicted to make room
// under the store's entry cap.
func TestCreateRejectionLeavesStoreUntouched(t *testing.T) {
	store := NewStreamStore(0, 2)
	m := NewSessionManager(1, time.Minute, store)
	defer m.Close()
	solver := mustSolver(gen.Cycle(6), cost.Width{})
	keyA := SolverKey{Fingerprint: "a"}
	a, err := m.Create(solver, keyA, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.NextPage(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	m.Remove(a.Token) // a's buffer holds ranks, so its stream stays cached
	if _, err := m.Create(solver, SolverKey{Fingerprint: "b"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if _, err := m.Create(solver, SolverKey{Fingerprint: "c"}, nil, nil); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("want ErrTooManySessions, got %v", err)
	}
	m.Close()
	if _, err := m.Create(solver, SolverKey{Fingerprint: "d"}, nil, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
	after := store.Stats()
	if after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Fatalf("rejected Creates touched the store: %+v -> %+v", before, after)
	}
	if !store.Contains(keyA) {
		t.Fatal("a rejected Create evicted the cached stream a")
	}
}

// TestReplayAnchorOnError: Replay's error returns must carry the
// requested anchor rank, not the zero value of the named return — an
// error response claiming the replay was anchored at rank 0 would send a
// recovering client back to re-fetch pages it already has.
func TestReplayAnchorOnError(t *testing.T) {
	m := NewSessionManager(4, time.Minute, nil)
	solver := mustSolver(gen.Cycle(6), cost.Width{})
	sess, err := m.Create(solver, SolverKey{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sess.NextPage(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	m.Close() // cancels the session's context under the live cursor
	start, results, _, ok, rerr := sess.Replay(context.Background(), 3, 2)
	if !ok || !errors.Is(rerr, ErrSessionNotFound) {
		t.Fatalf("replay on a dead session: ok=%v err=%v", ok, rerr)
	}
	if start != 3 || results != nil {
		t.Fatalf("error replay must echo the anchor rank 3 without results, got start=%d results=%v", start, results)
	}
}

// TestPageReplay re-serves the last page via ?from= (the recovery path
// for a response lost mid-write) and rejects unreplayable ranks.
func TestPageReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 2}`, cycleGraph6(t, 6)))
	page, status := getNext(t, ts, first.Session, 2) // ranks 2,3
	if status != http.StatusOK || len(page.Results) != 2 {
		t.Fatalf("setup page failed: %d %+v", status, page)
	}
	replayURL := fmt.Sprintf("%s/v1/sessions/%s/next?from=%d", ts.URL, first.Session, page.Results[0].Index)
	resp, err := http.Get(replayURL)
	if err != nil {
		t.Fatal(err)
	}
	var replay EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(replay.Results) != 2 || replay.Results[0].Index != 2 || replay.Results[1].Index != 3 {
		t.Fatalf("replay should re-serve ranks 2,3, got %+v", replay.Results)
	}
	// Paging continues from the live cursor afterwards.
	cont, status := getNext(t, ts, first.Session, 2)
	if status != http.StatusOK || cont.Results[0].Index != 4 {
		t.Fatalf("paging after replay should resume at rank 4, got %d %+v", status, cont.Results)
	}
	// Any committed rank is replayable, not just the last page: the shared
	// stream buffer retains the whole prefix.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=0&page_size=3", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	var old EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&old); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(old.Results) != 3 || old.Results[0].Index != 0 || old.Results[2].Index != 2 {
		t.Fatalf("replay from 0 should re-serve ranks 0..2, got %+v", old.Results)
	}
	// A rank beyond the cursor is a conflict.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=100", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("from beyond the cursor should 409, got %d", resp.StatusCode)
	}
	// from equal to the current cursor pages normally.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=6&page_size=2", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	var cur EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cur.Results) != 2 || cur.Results[0].Index != 6 {
		t.Fatalf("from=cursor should page normally from rank 6, got %+v", cur.Results)
	}
}

// TestBadPageSizeQuery rejects trailing garbage in the page_size query.
func TestBadPageSizeQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	for _, q := range []string{"5x", "abc", "1.5"} {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + first.Session + "/next?page_size=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("page_size=%s: want 400, got %d", q, resp.StatusCode)
		}
	}
}

// TestBadQueryRejectedBeforeAdmission pins that a malformed page_size or
// from on /next is a 400 even while every admission slot is busy: client
// errors must not queue behind solver work.
func TestBadQueryRejectedBeforeAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	release, err := srv.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, q := range []string{"from=x", "from=-1", "page_size=5x"} {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+first.Session+"/next?"+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("%s with the only slot held: %v", q, err)
		}
		resp.Body.Close()
		cancel()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with the only slot held: want 400, got %d", q, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestStatsSolverReuseCounters checks that /v1/stats surfaces the
// incremental-DP counters of the cached solvers after an enumeration.
func TestStatsSolverReuseCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6))
	if !first.Done {
		t.Fatalf("cycle enumeration should exhaust in one page, got done=%v", first.Done)
	}
	stats := getStats(t, ts)
	if stats.Solver.ConstrainedSolves == 0 {
		t.Fatal("stats report no constrained solves after an enumeration")
	}
	if stats.Solver.ReusedBlocks == 0 {
		t.Fatal("incremental solver reused no blocks")
	}
}

// TestAtomDecompositionService drives a clique-separated graph through
// the server: the decomposed solver must report its atom shape in the
// enumerate response and /v1/stats. That the decomposed enumeration
// matches the monolithic one rank by rank is core's atom oracle.
func TestAtomDecompositionService(t *testing.T) {
	// Two 4-cycles sharing a cut vertex: two atoms of 4 vertices each.
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}} {
		g.AddEdge(e[0], e[1])
	}
	var buf bytes.Buffer
	if err := graph.WriteGraph6(&buf, g); err != nil {
		t.Fatal(err)
	}
	g6 := strings.TrimSpace(buf.String())
	body := fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6)

	_, tsDec := newTestServer(t, Config{})
	dec, _ := postEnumerate(t, tsDec, body)
	if dec.Solver == nil || dec.Solver.Atoms < 2 {
		t.Fatalf("expected a decomposed solver, got %+v", dec.Solver)
	}
	if dec.Solver.LargestAtom >= 7 {
		t.Fatalf("largest atom %d should be smaller than the graph", dec.Solver.LargestAtom)
	}
	stats := getStats(t, tsDec)
	if stats.Atoms.DecomposedSolvers != 1 || stats.Atoms.TotalAtoms != dec.Solver.Atoms {
		t.Fatalf("atom stats %+v inconsistent with solver info %+v", stats.Atoms, dec.Solver)
	}
}
