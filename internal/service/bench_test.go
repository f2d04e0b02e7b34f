package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraphs returns the small end of the Grids experiment family — the
// serving-layer baseline graphs. Larger experiment graphs are excluded so
// the cold-init benchmark stays minutes-free; the cold/cached ratio is
// what later perf PRs track, not the absolute init time.
func benchGraphs(b *testing.B) []exp.NamedGraph {
	for _, ds := range exp.Datasets(1) {
		if ds.Name != "Grids" {
			continue
		}
		var out []exp.NamedGraph
		for _, ng := range ds.Graphs {
			if ng.Graph.NumVertices() <= 16 {
				out = append(out, ng)
			}
		}
		if len(out) == 0 {
			b.Fatal("no small grid graphs in the experiment corpus")
		}
		return out
	}
	b.Fatal("Grids dataset missing from the experiment corpus")
	return nil
}

// BenchmarkSharedStreamFanout is the headline number of the shared
// ranked-stream cache: N concurrent clients consuming the same ranked
// prefix of one graph. With private enumerators (the pre-cache serving
// model) the enumeration work — constrained Lawler–Murty branch solves —
// is N× that of a single client; through the StreamStore the first cursor
// to reach each rank solves it once and everyone else reads the buffer,
// so total work approaches 1×. The solves/op metric reports the measured
// work per iteration; compare shared vs private.
func BenchmarkSharedStreamFanout(b *testing.B) {
	const clients = 8
	const ranks = 100
	g := gen.Cycle(9) // Catalan(7) = 429 minimal triangulations, no atoms
	solver, err := core.New(context.Background(), g, cost.FillIn{}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "fill", Bound: -1}

	// Consumers run on their own goroutines, so failures are reported with
	// b.Error (goroutine-safe) rather than b.Fatal (test-goroutine only).
	consume := func(b *testing.B, next func(i int) (*core.Result, bool)) {
		for i := 0; i < ranks; i++ {
			if _, ok := next(i); !ok {
				b.Errorf("stream ended early at rank %d", i)
				return
			}
		}
	}

	b.Run("shared", func(b *testing.B) {
		before := solver.ReuseStats().ConstrainedSolves
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := NewStreamStore(0, 0) // fresh store: every iteration re-enumerates once
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := store.Acquire(key, solver)
					defer h.Release()
					consume(b, func(i int) (*core.Result, bool) {
						r, ok, err := h.At(context.Background(), i)
						if err != nil {
							b.Error(err)
							return nil, false
						}
						return r, ok
					})
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		solves := solver.ReuseStats().ConstrainedSolves - before
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})

	b.Run("private", func(b *testing.B) {
		before := solver.ReuseStats().ConstrainedSolves
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := solver.EnumerateContext(context.Background())
					consume(b, func(int) (*core.Result, bool) { return e.Next() })
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		solves := solver.ReuseStats().ConstrainedSolves - before
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})
}

// BenchmarkCanonFanout is the headline number of canonical cache keying:
// N concurrent clients submit the SAME graph under DIFFERENT vertex
// numberings — the workload label-sensitive keys cannot deduplicate. With
// canonical keys all N requests collapse onto one solver and one
// materialized stream (plus a per-client label mapping on egress), so the
// enumeration work approaches the 1× of a solo client. The whole HTTP
// enumerate path runs, so solver init is included — canonical keys dedup
// that too. Compare solves/op across canon and solo.
func BenchmarkCanonFanout(b *testing.B) {
	const clients = 8
	const ranks = 100
	rng := rand.New(rand.NewSource(42))
	copies := gen.IsoCopies(rng, gen.Cycle(9), clients) // Catalan(7) = 429 results per labeling

	bodies := make([]string, clients)
	for i, g := range copies {
		edges, err := json.Marshal(g.Edges())
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = fmt.Sprintf(`{"n": %d, "edges": %s, "cost": "fill", "page_size": %d}`, g.Universe(), edges, ranks)
	}

	run := func(b *testing.B, nClients int) {
		b.ReportAllocs()
		var solves uint64
		for i := 0; i < b.N; i++ {
			// A fresh server per iteration: every fan-out starts from a cold
			// pool and stream store. Streams solve only on demand, and at a
			// given GOMAXPROCS each Next solves the same branches every run,
			// so the work accounting is deterministic.
			srv := New(Config{MaxConcurrent: clients * 2})
			var wg sync.WaitGroup
			for c := 0; c < nClients; c++ {
				wg.Add(1)
				go func(body string) {
					defer wg.Done()
					req := httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(body))
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != 200 {
						b.Errorf("enumerate: status %d: %s", rec.Code, rec.Body.String())
						return
					}
					var resp EnumerateResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						b.Error(err)
						return
					}
					if len(resp.Results) != ranks {
						b.Errorf("got %d results, want %d", len(resp.Results), ranks)
					}
				}(bodies[c])
			}
			wg.Wait()
			b.StopTimer()
			solves += srv.pool.ReuseStats().ConstrainedSolves
			srv.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	}

	b.Run("canon", func(b *testing.B) { run(b, clients) })
	b.Run("solo", func(b *testing.B) { run(b, 1) })
}

// BenchmarkSolverPoolColdInit measures the miss path: full solver
// initialization (minimal separators, PMCs, blocks) through the pool.
func BenchmarkSolverPoolColdInit(b *testing.B) {
	graphs := benchGraphs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pool := NewSolverPool(len(graphs))
		for _, ng := range graphs {
			g := ng.Graph
			key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
			if _, _, err := pool.Get(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
				return core.New(ctx, g, cost.Width{}, core.Options{})
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolverPoolCachedFetch measures the hit path: fingerprint
// hashing plus the LRU lookup, the steady-state cost of a re-submitted
// graph.
func BenchmarkSolverPoolCachedFetch(b *testing.B) {
	graphs := benchGraphs(b)
	pool := NewSolverPool(len(graphs))
	for _, ng := range graphs {
		g := ng.Graph
		key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
		if _, _, err := pool.Get(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
			return core.New(ctx, g, cost.Width{}, core.Options{})
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)].Graph
		key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
		_, hit, err := pool.Get(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
			b.Fatal("cached fetch must not rebuild")
			return nil, nil
		})
		if err != nil || !hit {
			b.Fatalf("want cache hit, got hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkBatchThroughput is the /v1/batch headline: one request
// carrying N isomorphic problems (the batchy templated workload of PR 8,
// now in a single round trip) against the full handler stack. The
// compile layer collapses the members onto one canonical solver/stream
// key, so per-iteration work approaches one solve plus N-1 cache reads;
// problems/sec is the reported throughput metric.
func BenchmarkBatchThroughput(b *testing.B) {
	const members = 8
	srv := New(Config{})
	defer srv.Close()
	rng := rand.New(rand.NewSource(11))
	copies := gen.IsoCopies(rng, gen.Cycle(8), members)
	var problems []string
	for _, g := range copies {
		edges, err := json.Marshal(g.Edges())
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, fmt.Sprintf(`{"edges": %s, "cost": "fill", "page_size": 5}`, edges))
	}
	body := fmt.Sprintf(`{"problems": [%s]}`, strings.Join(problems, ","))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var out BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			b.Fatal(err)
		}
		if out.Errors != 0 || len(out.Items) != members {
			b.Fatalf("batch failed: %d errors over %d items", out.Errors, len(out.Items))
		}
		// Keep the session table from saturating across iterations.
		for _, item := range out.Items {
			if item.Response != nil && item.Response.Session != "" {
				srv.sessions.Remove(item.Response.Session)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*members)/b.Elapsed().Seconds(), "problems/sec")
}

// BenchmarkWarmEgress measures the warm read path per request: a warmed
// server answers relabeled copies of a template, 100 results per request,
// as NDJSON or as one page, so every result is served from a
// materialized stream and converted into the client's labels on the way
// out. No solving happens in the timed loop; allocs/op is dominated by
// egress. It drives the handler only, so it runs on any version of the
// service package.
func BenchmarkWarmEgress(b *testing.B) {
	const results = 100
	templates := []struct {
		name string
		g    *graph.Graph
	}{
		{"C9", gen.Cycle(9)}, // Catalan(7) = 429 results
		{"TreePlusChords(40,3)", gen.TreePlusChords(rand.New(rand.NewSource(1)), 40, 3)},
	}
	modes := []struct {
		name, field string
	}{
		{"ndjson", fmt.Sprintf(`"stream": true, "max_results": %d`, results)},
		{"page", fmt.Sprintf(`"page_size": %d`, results)},
	}
	for _, tpl := range templates {
		copies := gen.IsoCopies(rand.New(rand.NewSource(9)), tpl.g, 8)
		for _, mode := range modes {
			b.Run(tpl.name+"/"+mode.name, func(b *testing.B) {
				srv := New(Config{})
				defer srv.Close()
				bodies := make([]string, len(copies))
				for i, g := range copies {
					edges, err := json.Marshal(g.Edges())
					if err != nil {
						b.Fatal(err)
					}
					bodies[i] = fmt.Sprintf(`{"n": %d, "edges": %s, "cost": "fill", %s}`, g.Universe(), edges, mode.field)
				}
				serve := func(body string) {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(body)))
					out := rec.Body.Bytes()
					if rec.Code != 200 {
						b.Fatalf("status %d: %s", rec.Code, out)
					}
					if mode.name == "ndjson" {
						if lines := bytes.Count(out, []byte("\n")); lines != results+1 {
							b.Fatalf("%d NDJSON lines, want %d results and a summary", lines, results)
						}
						return
					}
					// The page leaves a session open; the token leads the body.
					const prefix = `{"session":"`
					if !bytes.HasPrefix(out, []byte(prefix)) || len(out) < len(prefix)+32 {
						b.Fatalf("page without a session token: %.80s", out)
					}
					srv.sessions.Remove(string(out[len(prefix) : len(prefix)+32]))
				}
				for _, body := range bodies {
					serve(body) // build the solver and materialize each stream
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve(bodies[i%len(bodies)])
				}
			})
		}
	}
}
