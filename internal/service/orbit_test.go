package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// TestOrbitModeEndToEnd drives orbit-reduced enumeration over the wire on
// C6 (|Aut| = 12, 14 minimal triangulations in 3 orbits: two of size 6 —
// the fans and the snakes — and the triforce pair of size 2) and checks
// the reduced and unreduced requests on the same graph neither alias a
// stream-cache entry nor leak each other's results.
func TestOrbitModeEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{PageSize: 50})
	g6 := cycleGraph6(t, 6)

	resp, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "orbits": true}`, g6))
	if !resp.Orbits {
		t.Fatal("orbit request not marked orbits on the wire")
	}
	if !resp.Done {
		t.Fatalf("3 orbit representatives must fit one page of 50 (got %d results, done=%v)", len(resp.Results), resp.Done)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("C6 orbit stream: got %d representatives, want 3", len(resp.Results))
	}
	var sizes []int64
	var sum int64
	for _, r := range resp.Results {
		if r.OrbitSize < 1 {
			t.Fatalf("orbit representative without orbit_size: %+v", r)
		}
		sizes = append(sizes, r.OrbitSize)
		sum += r.OrbitSize
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	if sum != 14 || fmt.Sprint(sizes) != "[2 6 6]" {
		t.Fatalf("C6 orbit sizes %v (Σ=%d), want [2 6 6] (Σ=14)", sizes, sum)
	}

	// The unreduced request on the same (graph, cost) must get its own
	// stream — 14 plain results, no orbit_size stamps.
	plain, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if plain.Orbits {
		t.Fatal("plain request marked orbits")
	}
	if !plain.Done || len(plain.Results) != 14 {
		t.Fatalf("plain C6 stream: got %d results (done=%v), want all 14", len(plain.Results), plain.Done)
	}
	for _, r := range plain.Results {
		if r.OrbitSize != 0 {
			t.Fatalf("plain result carries orbit_size %d", r.OrbitSize)
		}
	}
	if got := srv.streams.Len(); got != 2 {
		t.Fatalf("want 2 distinct stream entries (orbit + plain), got %d", got)
	}

	stats := getStats(t, ts)
	if stats.Orbits.DefaultOn {
		t.Fatal("stats claim orbit mode is on by default")
	}
	if stats.Orbits.Requests != 1 {
		t.Fatalf("orbit request counter: want 1, got %d", stats.Orbits.Requests)
	}
	if stats.Orbits.Representatives != 3 || stats.Orbits.MaxGroupOrder != 12 {
		t.Fatalf("orbit core counters: %+v", stats.Orbits)
	}
}

// TestOrbitKnobResolutionAndNDJSON pins the resolution order (?orbits=
// beats the body field beats Config.DefaultOrbits) on a default-on server
// and the NDJSON path's orbit_size stamps. C5's 5 fan triangulations form
// a single orbit of size 5.
func TestOrbitKnobResolutionAndNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultOrbits: true, PageSize: 20})
	g6 := cycleGraph6(t, 5)

	// Server default applies when the request says nothing.
	resp, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if !resp.Orbits || len(resp.Results) != 1 || resp.Results[0].OrbitSize != 5 {
		t.Fatalf("default-on server: orbits=%v, %d results, first orbit_size=%d; want one size-5 representative",
			resp.Orbits, len(resp.Results), firstOrbitSize(resp))
	}

	// The body field overrides the default.
	plain, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "orbits": false}`, g6))
	if plain.Orbits || len(plain.Results) != 5 {
		t.Fatalf("body orbits=false: orbits=%v, %d results; want 5 unreduced", plain.Orbits, len(plain.Results))
	}

	// The query knob overrides the body field.
	httpResp, err := http.Post(ts.URL+"/v1/enumerate?orbits=1", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph6": %q, "cost": "fill", "orbits": false}`, g6)))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var knob EnumerateResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&knob); err != nil {
		t.Fatal(err)
	}
	if !knob.Orbits || len(knob.Results) != 1 {
		t.Fatalf("?orbits=1 over body false: orbits=%v, %d results; want 1 representative", knob.Orbits, len(knob.Results))
	}

	// A malformed knob is a client error.
	status, body := postRaw(t, ts.URL+"/v1/enumerate?orbits=sideways", fmt.Sprintf(`{"graph6": %q}`, g6))
	if status != http.StatusBadRequest {
		t.Fatalf("bad ?orbits=: want 400, got %d: %s", status, body)
	}

	// NDJSON streaming carries the same stamps line by line.
	streamResp, err := http.Post(ts.URL+"/v1/enumerate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph6": %q, "cost": "fill", "stream": true}`, g6)))
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	data, err := io.ReadAll(streamResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 { // 1 representative + summary
		t.Fatalf("orbit NDJSON: want 2 lines, got %d: %s", len(lines), data)
	}
	var line TriangulationJSON
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatal(err)
	}
	if line.OrbitSize != 5 {
		t.Fatalf("NDJSON line orbit_size %d, want 5: %s", line.OrbitSize, lines[0])
	}
}

func firstOrbitSize(resp *EnumerateResponse) int64 {
	if len(resp.Results) == 0 {
		return -1
	}
	return resp.Results[0].OrbitSize
}

// TestOrbitCostGating pins the label-invariance gate: orbit mode with a
// label-sensitive cost is a 400, while uniform statespace domains pass.
func TestOrbitCostGating(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postRaw(t, ts.URL+"/v1/enumerate",
		`{"hyperedges": [[0,1,2],[2,3],[3,4,0]], "cost": "hypertree", "orbits": true}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "label-invariant") {
		t.Fatalf("orbits+hypertree: want 400 naming the invariance gate, got %d: %s", status, body)
	}

	status, body = postRaw(t, ts.URL+"/v1/enumerate",
		`{"edges": [[0,1],[1,2],[2,3],[3,4],[4,0]], "cost": "statespace", "domains": [2,2,3,2,2], "orbits": true}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "label-invariant") {
		t.Fatalf("orbits+non-uniform domains: want 400, got %d: %s", status, body)
	}

	resp, _ := postEnumerate(t, ts,
		`{"edges": [[0,1],[1,2],[2,3],[3,4],[4,0]], "cost": "statespace", "domains": [3,3,3,3,3], "orbits": true, "page_size": 20}`)
	if !resp.Orbits || len(resp.Results) != 1 || resp.Results[0].OrbitSize != 5 {
		t.Fatalf("orbits+uniform domains: orbits=%v, %d results, orbit_size=%d; want one size-5 representative",
			resp.Orbits, len(resp.Results), firstOrbitSize(resp))
	}
}
