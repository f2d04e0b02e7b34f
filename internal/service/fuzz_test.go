package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Fuzz targets for the request decoders of the POST endpoints: any
// body must produce a well-formed JSON response with a sane status —
// never a panic, and never an enumeration the configured limits (vertex
// cap, batch cap, body cap, page cap) would not admit. The servers are
// built once per target with tiny limits so the accepting paths solve
// n≤8 problems and each exec stays microseconds.
//
// CI runs each target briefly (see .github/workflows/ci.yml); longer
// local sessions: go test ./internal/service -run='^$' -fuzz=FuzzEnumerateEndpoint

// fuzzServer is a shared tiny-limit server for the endpoint fuzzers.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	srv := New(Config{
		MaxVertices:   8,
		MaxBatchItems: 4,
		MaxBodyBytes:  1 << 16,
		PageSize:      3,
		MaxSessions:   16,
	})
	f.Cleanup(srv.Close)
	return srv
}

// fuzzPost drives one endpoint through the full handler stack and
// checks the response contract.
func fuzzPost(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s: unexpected status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	// NDJSON streams are a sequence of JSON lines; everything else is one
	// JSON document. Either way the body must be well-formed.
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "ndjson") {
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var line any
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: malformed NDJSON line: %v", path, err)
			}
		}
		return
	}
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: status %d with malformed JSON body %q: %v", path, rec.Code, rec.Body.Bytes(), err)
	}
}

func FuzzEnumerateEndpoint(f *testing.F) {
	f.Add(`{"graph6": "DqK", "cost": "fill", "page_size": 2}`)
	f.Add(`{"edges": [[0,1],[1,2],[2,3],[3,0],[0,4]], "cost": "lex", "orbits": true}`)
	f.Add(`{"n": 3}`)
	f.Add(`{"graph6": "DqK", "stream": true, "max_results": 2}`)
	f.Add(`{"edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]], "diverse": 2, "window": 5}`)
	f.Add(`{"hyperedges": [[0,1,2],[2,3],[3,4,0]], "cost": "hypertree", "bound": 2}`)
	f.Add(`{"edges": [[0,1],[1,2],[2,3],[3,0]], "cost": "statespace", "domains": [2,3,2,2], "backend": "mis"}`)
	f.Add(`{"graph6": "D?"}`)
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, srv, "/v1/enumerate", []byte(body))
	})
}

func FuzzBatchEndpoint(f *testing.F) {
	f.Add(`{"problems": [{"graph6": "DqK", "cost": "fill"}, {"edges": [[0,1],[1,2]], "page_size": 2}]}`)
	f.Add(`{"problems": [{"n": 3}, {"graph6": "nope"}, {"edges": [[0,1]], "diverse": 2, "window": 5}]}`)
	f.Add(`{"problems": [{"hyperedges": [[0,1,2],[2,3]], "cost": "hypertree"}]}`)
	f.Add(`{"problems": []}`)
	f.Add(`{"problems": [{"graph6": "DqK"}, {"graph6": "DqK"}, {"graph6": "DqK"}, {"graph6": "DqK"}, {"graph6": "DqK"}]}`)
	f.Add(`{"problems"`)
	f.Add(`[]`)
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, srv, "/v1/batch", []byte(body))
	})
}

func FuzzHypergraphEndpoint(f *testing.F) {
	f.Add(`{"hyperedges": [[0,1,2],[2,3],[3,0]]}`)
	f.Add(`{"hyperedges": [[0,1],[1,2]], "cost": "fractional-htw", "page_size": 2}`)
	f.Add(`{"hyperedges": [[0,1]], "cost": "lex", "diverse": 2}`)
	f.Add(`{"hyperedges": [[]], "cost": "hypertree"}`)
	f.Add(`{"hyperedges": [[0,99]]}`)
	f.Add(`{"graph6": "DqK"}`)
	f.Add(`{"hyperedges": [[0,1]], "stream": true, "max_results": 2}`)
	f.Add(`{"hyperedges": [[-1,0]]}`)
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, srv, "/v1/hypergraph", []byte(body))
	})
}

func FuzzCSPEndpoint(f *testing.F) {
	f.Add(`{"domains": [2,2,2], "constraints": [{"scope": [0,1], "allowed": [[0,1],[1,0]]}], "solve": true, "count": true}`)
	f.Add(`{"domains": [3,3], "constraints": [{"scope": [0,1], "allowed": []}], "solve": true}`)
	f.Add(`{"domains": [2,2], "constraints": [{"scope": [0,5], "allowed": [[0,0]]}]}`)
	f.Add(`{"domains": [2,2], "constraints": [{"scope": [1,1]}]}`)
	f.Add(`{"domains": [0]}`)
	f.Add(`{"domains": [2,2,2,2], "cost": "width", "diverse": 2, "count": true}`)
	f.Add(`{"domains": [2,2], "constraints": [{"scope": [0,1], "allowed": [[0,9]]}]}`)
	f.Add(`{"domains":`)
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, srv, "/v1/csp", []byte(body))
	})
}
