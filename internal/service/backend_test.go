package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postRaw posts an enumerate body to url and returns the status and body
// without asserting success (for the 4xx/5xx paths postEnumerate rejects).
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// TestDegradedModeMISBackend is the serving-tier story this subsystem
// exists for: when the ranked DP's init budget makes it a 503, the same
// server answers the same graph through ?backend=mis — a degraded
// (unranked) but complete stream instead of no answer at all.
func TestDegradedModeMISBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{InitTimeout: time.Nanosecond, PageSize: 5})
	g6 := cycleGraph6(t, 6)

	// The DP backend cannot initialize inside a nanosecond: capacity 503.
	status, body := postRaw(t, ts.URL+"/v1/enumerate", fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("DP under 1ns init budget: want 503, got %d: %s", status, body)
	}

	// The MIS backend has no init phase to time out; the same request
	// with backend=mis streams all 14 triangulations of C6.
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "backend": "mis"}`, g6))
	if first.Backend != "mis" {
		t.Fatalf("want backend mis, got %q", first.Backend)
	}
	if first.Ranked {
		t.Fatal("MIS backend must not claim ranked output")
	}
	if first.Solver != nil {
		t.Fatal("MIS response must not carry DP solver init stats")
	}
	results := first.Results
	token := first.Session
	done := first.Done
	for !done {
		page, status := getNext(t, ts, token, 0)
		if status != http.StatusOK {
			t.Fatalf("paging MIS session: status %d", status)
		}
		results = append(results, page.Results...)
		done = page.Done
	}
	if len(results) != 14 {
		t.Fatalf("C6 via MIS: got %d results, want 14", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		k := fmt.Sprint(r.Bags)
		if seen[k] {
			t.Fatalf("duplicate triangulation on the wire: %v", r.Bags)
		}
		seen[k] = true
	}
}

// TestBackendQueryKnobOverrides asserts the resolution order: the
// ?backend= query knob wins over the body field, which wins over the
// server default. Names outside the accepted list, the deleted
// "mis-scored" and its "scored" alias included, are 400s that list the
// accepted backends, on /v1/enumerate and in a /v1/batch item alike.
func TestBackendQueryKnobOverrides(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultBackend: "mis"})
	g6 := cycleGraph6(t, 5)

	// Server default applies when the request names nothing.
	resp, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, g6))
	if resp.Backend != "mis" {
		t.Fatalf("server default: want mis, got %q", resp.Backend)
	}

	// The body field overrides the default.
	resp2, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "backend": "dp", "page_size": 1}`, g6))
	if resp2.Backend != "dp" || !resp2.Ranked {
		t.Fatalf("body field: want ranked dp, got %q ranked=%v", resp2.Backend, resp2.Ranked)
	}

	// The query knob overrides the body field (and the default, which
	// agrees with the body here, so only the knob can pick dp).
	req := fmt.Sprintf(`{"graph6": %q, "backend": "mis", "page_size": 1}`, g6)
	httpResp, err := http.Post(ts.URL+"/v1/enumerate?backend=dp", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var out EnumerateResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Backend != "dp" || !out.Ranked {
		t.Fatalf("query knob: want ranked dp, got %q ranked=%v", out.Backend, out.Ranked)
	}

	// Unknown names are client errors that list the accepted backends.
	const accepted = "(want auto, dp or mis)"
	for _, name := range []string{"quantum", "mis-scored", "scored"} {
		status, body := postRaw(t, ts.URL+"/v1/enumerate?backend="+name, fmt.Sprintf(`{"graph6": %q}`, g6))
		if status != http.StatusBadRequest || !strings.Contains(body, accepted) {
			t.Fatalf("backend %q via query: want 400 naming %s, got %d: %s", name, accepted, status, body)
		}
		status, body = postRaw(t, ts.URL+"/v1/enumerate", fmt.Sprintf(`{"graph6": %q, "backend": %q}`, g6, name))
		if status != http.StatusBadRequest || !strings.Contains(body, accepted) {
			t.Fatalf("backend %q via body: want 400 naming %s, got %d: %s", name, accepted, status, body)
		}
	}
	status, body := postRaw(t, ts.URL+"/v1/batch",
		fmt.Sprintf(`{"problems": [{"graph6": %q, "backend": "mis-scored"}, {"graph6": %q, "page_size": 1}]}`, g6, g6))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Errors != 1 || !strings.Contains(batch.Items[0].Error, accepted) || batch.Items[1].Response == nil {
		t.Fatalf("batch: want item 0 to name %s and item 1 to succeed, got %s", accepted, body)
	}
}

// TestBackendAutoPolicy pins the auto probe's routing: a separator-poor
// graph stays on the ranked DP, and the same server sends a graph whose
// separator count overflows the probe budget to MIS.
func TestBackendAutoPolicy(t *testing.T) {
	// C6 has 9 minimal separators; a budget of 4 overflows on it. The
	// path P4 has 2, which exhausts under the budget and proves "easy".
	_, ts := newTestServer(t, Config{BackendProbeBudget: 4})

	pathReq := `{"edges": [[0,1],[1,2],[2,3]], "backend": "auto", "page_size": 1}`
	resp, _ := postEnumerate(t, ts, pathReq)
	if resp.Backend != "dp" {
		t.Fatalf("auto on P4: want dp, got %q", resp.Backend)
	}

	g6 := cycleGraph6(t, 6)
	resp2, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "backend": "auto", "page_size": 1}`, g6))
	if resp2.Backend != "mis" {
		t.Fatalf("auto on C6 under budget 4: want mis, got %q", resp2.Backend)
	}

	stats := getStats(t, ts)
	if stats.Backends.DP < 1 || stats.Backends.MIS < 1 {
		t.Fatalf("backend counters: %+v", stats.Backends)
	}
	if stats.Backends.AutoResolved != 2 {
		t.Fatalf("auto_resolved: want 2, got %d", stats.Backends.AutoResolved)
	}
}

// TestBackendStreamsDoNotAlias drives the same (graph, cost) through both
// backends and checks they use distinct shared-stream cache entries — the
// Backend field of SolverKey at work. Aliasing would make one backend
// serve the other's buffered sequence.
func TestBackendStreamsDoNotAlias(t *testing.T) {
	srv, ts := newTestServer(t, Config{PageSize: 3})
	g6 := cycleGraph6(t, 5)

	dpResp, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 2}`, g6))
	misResp, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "backend": "mis", "page_size": 2}`, g6))
	if dpResp.Backend == misResp.Backend {
		t.Fatalf("both requests report backend %q", dpResp.Backend)
	}
	if got := srv.streams.Len(); got != 2 {
		t.Fatalf("want 2 distinct stream entries (dp + mis), got %d", got)
	}

	// DP's first page is the two cheapest triangulations; cost order must
	// hold there and is not required of MIS.
	if len(dpResp.Results) == 2 && dpResp.Results[0].Cost > dpResp.Results[1].Cost {
		t.Fatalf("DP page out of cost order: %v then %v", dpResp.Results[0].Cost, dpResp.Results[1].Cost)
	}

	stats := getStats(t, ts)
	if stats.Backends.DP != 1 || stats.Backends.MIS != 1 {
		t.Fatalf("backend counters after one request each: %+v", stats.Backends)
	}
}

// TestMISNDJSONStream drives the NDJSON fan-out path over the MIS
// backend: stream=true produces one line per triangulation plus the
// summary line, all from the shared stream cache.
func TestMISNDJSONStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph6": %q, "cost": "fill", "backend": "mis", "stream": true}`, g6)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 15 { // 14 results + summary
		t.Fatalf("want 15 NDJSON lines, got %d", len(lines))
	}
	var summary struct {
		Done  bool `json:"done"`
		Count int  `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if !summary.Done || summary.Count != 14 {
		t.Fatalf("summary: %+v", summary)
	}
}
