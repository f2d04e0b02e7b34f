package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hyper"
)

// edgesBody renders g as an edge-list enumerate request with extra JSON
// fields appended (e.g. `"cost": "fill"`).
func edgesBody(g *graph.Graph, extra string) string {
	edges, _ := json.Marshal(g.Edges())
	body := fmt.Sprintf(`{"n": %d, "edges": %s`, g.Universe(), edges)
	if extra != "" {
		body += ", " + extra
	}
	return body + "}"
}

// tieSorted renders results as NDJSON lines sorted by (cost, bytes) with
// the rank index zeroed out and each result's bag/separator lists sorted.
// Enumeration order within an equal-cost block — and the order of bags
// within one clique tree — is implementation-defined: canonical keying
// enumerates a relabeling of the submitted graph, which may permute both
// relative to a direct solve. Equality of tie-sorted lines is therefore
// the right oracle: same triangulations, same costs, same per-cost
// blocks.
func tieSorted(t *testing.T, results []TriangulationJSON) []string {
	t.Helper()
	lines := make([]string, len(results))
	prev := results
	for i, r := range prev {
		if i > 0 && r.Cost < prev[i-1].Cost {
			t.Fatalf("cost order violated at rank %d: %g after %g", i, r.Cost, prev[i-1].Cost)
		}
		r.Index = 0
		r.Bags = sortSetList(r.Bags)
		r.Seps = sortSetList(r.Seps)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	sort.SliceStable(lines, func(i, j int) bool {
		if prev[i].Cost != prev[j].Cost {
			return prev[i].Cost < prev[j].Cost
		}
		return lines[i] < lines[j]
	})
	return lines
}

// sortSetList returns sets (each already ascending) in lexicographic
// order, without mutating the input.
func sortSetList(sets [][]int) [][]int {
	out := append([][]int(nil), sets...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// soloResults enumerates g under c directly — no serving tier — as the
// per-client oracle.
func soloResults(t *testing.T, g *graph.Graph, c cost.Cost) []TriangulationJSON {
	t.Helper()
	e := mustSolver(g, c).EnumerateContext(context.Background())
	var out []TriangulationJSON
	for i := 0; ; i++ {
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, legacyResultJSON(g, i, r))
	}
}

// pageBody drives one paging session to exhaustion from a raw request
// body and returns all wire results in rank order.
func pageBody(t *testing.T, ts *httptest.Server, body string, pageSize int) []TriangulationJSON {
	t.Helper()
	first, _ := postEnumerate(t, ts, body)
	results := append([]TriangulationJSON(nil), first.Results...)
	token, done := first.Session, first.Done
	for !done {
		np, status := getNext(t, ts, token, pageSize)
		if np == nil {
			t.Fatalf("next: status %d", status)
		}
		results = append(results, np.Results...)
		done = np.Done
		if np.Session != "" {
			token = np.Session
		}
	}
	return results
}

// TestCanonicalKeyingIsomorphicClients is the tentpole's end-to-end
// oracle: several clients submit the same graph under different vertex
// numberings; every client must receive exactly its own graph's
// enumeration (validated against a direct solo solve on its labeling, up
// to equal-cost tie order), while the serving tier builds ONE solver and
// ONE materialized stream for all of them.
func TestCanonicalKeyingIsomorphicClients(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	template := gen.Cycle(8) // Catalan(6) = 132 minimal triangulations
	copies := gen.IsoCopies(rng, template, 4)

	_, ts := newTestServer(t, Config{})
	for i, g := range copies {
		got := pageBody(t, ts, edgesBody(g, `"cost": "fill", "page_size": 25`), 25)
		want := soloResults(t, g, cost.FillIn{})
		if len(got) != len(want) {
			t.Fatalf("client %d: got %d results, want %d", i, len(got), len(want))
		}
		gotLines, wantLines := tieSorted(t, got), tieSorted(t, want)
		for j := range gotLines {
			if gotLines[j] != wantLines[j] {
				t.Fatalf("client %d: tie-sorted rank %d differs:\n got %s\nwant %s", i, j, gotLines[j], wantLines[j])
			}
		}
	}

	stats := getStats(t, ts)
	if stats.Pool.Misses != 1 {
		t.Errorf("isomorphic clients built %d solvers, want 1", stats.Pool.Misses)
	}
	if stats.Streams.Misses != 1 {
		t.Errorf("isomorphic clients materialized %d streams, want 1", stats.Streams.Misses)
	}
	if stats.Canon.Requests != uint64(len(copies)) {
		t.Errorf("canon stats: %+v, want %d requests", stats.Canon, len(copies))
	}
	if stats.Canon.Fallbacks != 0 {
		t.Errorf("canon stats: %d fallbacks on an 8-cycle", stats.Canon.Fallbacks)
	}
	// At most one labeling can coincide with the canonical one; every
	// other client was relabeled, and each relabeled client after the
	// first rode an existing solver or stream.
	if stats.Canon.Relabeled < uint64(len(copies)-1) {
		t.Errorf("canon stats: only %d of %d clients relabeled", stats.Canon.Relabeled, len(copies))
	}
	if stats.Canon.Hits < stats.Canon.Relabeled-1 {
		t.Errorf("canon stats: %d hits for %d relabeled clients", stats.Canon.Hits, stats.Canon.Relabeled)
	}
}

// TestCanonicalKeyingDomains pins the label-carrying cost parameters: the
// statespace cost's per-vertex domains must be permuted into canonical
// labels alongside the graph, or the shared stream would rank by the
// wrong weights. The domains are chosen pairwise distinct so any
// mis-permutation changes costs, not just tie order.
func TestCanonicalKeyingDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	template := gen.Path(6)
	tmplDomains := []int{2, 3, 4, 5, 6, 7}
	perm := rng.Perm(6)
	client := template.Relabel(perm)
	clientDomains := make([]int, 6)
	for v, d := range tmplDomains {
		clientDomains[perm[v]] = d
	}

	_, ts := newTestServer(t, Config{})
	for i, sub := range []struct {
		g       *graph.Graph
		domains []int
	}{{template, tmplDomains}, {client, clientDomains}} {
		dj, _ := json.Marshal(sub.domains)
		body := edgesBody(sub.g, fmt.Sprintf(`"cost": "statespace", "domains": %s, "page_size": 50`, dj))
		got := pageBody(t, ts, body, 50)
		want := soloResults(t, sub.g, cost.TotalStateSpace{Domain: sub.domains})
		if len(got) != len(want) {
			t.Fatalf("client %d: got %d results, want %d", i, len(got), len(want))
		}
		gotLines, wantLines := tieSorted(t, got), tieSorted(t, want)
		for j := range gotLines {
			if gotLines[j] != wantLines[j] {
				t.Fatalf("client %d: tie-sorted rank %d differs:\n got %s\nwant %s", i, j, gotLines[j], wantLines[j])
			}
		}
	}
	if stats := getStats(t, ts); stats.Streams.Misses != 1 {
		t.Errorf("isomorphic statespace requests materialized %d streams, want 1 (domains not canonicalized with the graph?)", stats.Streams.Misses)
	}
}

// TestCanonicalKeyingHyperedges pins the other label-carrying parameter:
// hyperedge sets relabel with the graph, so isomorphic hypergraph
// submissions share a stream and each client's hypertree-width costs
// match a direct solve on its own labeling.
func TestCanonicalKeyingHyperedges(t *testing.T) {
	tmplEdges := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 0}}
	perm := []int{3, 0, 4, 1, 2}
	clientEdges := make([][]int, len(tmplEdges))
	for i, e := range tmplEdges {
		ce := make([]int, len(e))
		for j, v := range e {
			ce[j] = perm[v]
		}
		clientEdges[i] = ce
	}

	_, ts := newTestServer(t, Config{})
	for i, edges := range [][][]int{tmplEdges, clientEdges} {
		ej, _ := json.Marshal(edges)
		body := fmt.Sprintf(`{"hyperedges": %s, "cost": "hypertree", "page_size": 50}`, ej)
		got := pageBody(t, ts, body, 50)

		h := hyper.New(5)
		for _, e := range edges {
			h.AddEdge(e...)
		}
		want := soloResults(t, h.Primal(), h.HypertreeWidthCost())
		if len(got) != len(want) {
			t.Fatalf("client %d: got %d results, want %d", i, len(got), len(want))
		}
		gotLines, wantLines := tieSorted(t, got), tieSorted(t, want)
		for j := range gotLines {
			if gotLines[j] != wantLines[j] {
				t.Fatalf("client %d: tie-sorted rank %d differs:\n got %s\nwant %s", i, j, gotLines[j], wantLines[j])
			}
		}
	}
	if stats := getStats(t, ts); stats.Streams.Misses != 1 {
		t.Errorf("isomorphic hypertree requests materialized %d streams, want 1 (hyperedges not canonicalized with the graph?)", stats.Streams.Misses)
	}
}

// TestCanonicalKeyingNDJSONStream covers the third egress path: an NDJSON
// stream on a relabeled graph must emit client-labeled lines identical
// (tie-sorted) to a direct solve, while riding the stream a previous
// paging client materialized under the canonical key.
func TestCanonicalKeyingNDJSONStream(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	copies := gen.IsoCopies(rng, gen.Cycle(7), 2) // Catalan(5) = 42
	_, ts := newTestServer(t, Config{})

	// First client pages; second client streams the isomorphic relabeling.
	pageBody(t, ts, edgesBody(copies[0], `"cost": "fill", "page_size": 20`), 20)
	lines, err := streamAllBody(ts, edgesBody(copies[1], `"cost": "fill", "stream": true`))
	if err != nil {
		t.Fatal(err)
	}
	var got []TriangulationJSON
	for _, line := range lines {
		var r TriangulationJSON
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	want := soloResults(t, copies[1], cost.FillIn{})
	if len(got) != len(want) {
		t.Fatalf("stream: got %d results, want %d", len(got), len(want))
	}
	gotLines, wantLines := tieSorted(t, got), tieSorted(t, want)
	for j := range gotLines {
		if gotLines[j] != wantLines[j] {
			t.Fatalf("stream: tie-sorted rank %d differs:\n got %s\nwant %s", j, gotLines[j], wantLines[j])
		}
	}
	if stats := getStats(t, ts); stats.Streams.Misses != 1 {
		t.Errorf("paging + isomorphic NDJSON stream materialized %d streams, want 1", stats.Streams.Misses)
	}
}
