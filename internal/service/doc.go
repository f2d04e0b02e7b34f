// Package service is the serving layer over the RankedTriang machinery:
// it exposes ranked enumeration of minimal triangulations as a long-lived,
// concurrent HTTP/JSON service. The anytime shape of the paper's algorithm
// — results stream by increasing cost, clients stop when the prefix is
// good enough — maps directly onto paged and streamed HTTP responses.
//
// The subsystem has four layers:
//
//   - SolverPool deduplicates and LRU-caches initialized core.Solvers,
//     keyed by the canonical graph fingerprint plus the cost and width
//     bound. Concurrent requests for the same key share one
//     initialization; abandoned initializations are cancelled via
//     context once their last waiter disconnects.
//   - StreamStore materializes each solver's ranked enumeration exactly
//     once per key: an append-only result buffer (core.SharedStream)
//     shared by every consumer of that key, produced on demand with a
//     per-rank singleflight — the first cursor to need rank i drives the
//     enumerator, later cursors read the buffer. Each Next fans its
//     independent Lawler–Murty branch solves over GOMAXPROCS workers
//     (the emitted sequence is identical at any GOMAXPROCS); nothing
//     runs ahead of the cursors. Buffers live under an LRU byte budget
//     (Config.StreamBudgetBytes, -stream-budget); an evicted buffer
//     rebuilds lazily and, because the enumeration order is
//     deterministic, replays identical ranks.
//   - SessionManager holds thin cursors (token + position) over the
//     shared streams behind opaque resume tokens so clients page through
//     results across requests. Idle sessions are evicted by a janitor;
//     an abandoned stream burns no CPU: production only happens on
//     behalf of a reading cursor, and a stream owns no goroutine.
//   - Server wires everything behind an http.Handler with
//     bounded-concurrency admission and graceful shutdown; the NDJSON
//     streaming mode reads the same shared buffers as the paging
//     sessions. cmd/rankedtriangd is the daemon around it.
//
// Every ingress route runs through one problem-compilation step
// (compileProblem): graph construction, canonical relabeling, cost and
// bound resolution and knob parsing happen once, in one place, for
// /v1/enumerate, /v1/batch, /v1/hypergraph and /v1/csp alike. After
// admission, buildBackend derives the cache key from the request's one
// graph fingerprint and puts the engine on the compiled problem.
// /v1/enumerate, /v1/hypergraph and /v1/csp share one pipeline
// (serveProblem: compile, admit, build, then NDJSON or a page or diverse
// response, then write); they differ only in how they decode their body
// and in an optional finish step that adds their own response block.
// /v1/batch compiles every member, takes one admission slot, and builds
// and responds per member. Every workload shares the solver pool, the
// stream buffers and the isomorphism-canonical cache keys. On the way
// out, every read path — first page, next, replay, NDJSON, diverse and
// batch — builds each wire result straight from the canonical result in
// the shared buffer: bag and separator vertices map through the
// request's canonical→client permutation into one slice per result
// (wireResult), and no copy of the triangulation is made.
//
// # HTTP API
//
// POST /v1/enumerate — submit a graph and start an enumeration.
// Request body (application/json), exactly one graph source:
//
//	{
//	  "graph6": "D?{",             // nauty graph6, one graph
//	  "n": 4, "edges": [[0,1],[1,2]],  // or an edge list over {0..n-1}
//	  "hyperedges": [[0,1,2],[2,3]],   // or a hypergraph (primal graph is
//	                                   // triangulated; enables hypergraph costs)
//	  "cost": "width",             // width|fill|lex|statespace|hypertree|fractional-htw
//	  "domains": [2,3,2,2],        // per-vertex domain sizes for statespace
//	  "bound": 3,                  // optional width bound (MinTriangB)
//	  "page_size": 10,             // results per page
//	  "max_results": 0,            // stream mode: stop after this many (0 = all)
//	  "stream": false              // true = NDJSON streaming instead of paging
//	}
//
// Response: the first page of results plus a resume token (empty when the
// enumeration is already exhausted):
//
//	{
//	  "session": "f2a9…",          // pass to /v1/sessions/{token}/next
//	  "done": false,
//	  "cache_hit": true,           // solver served from the pool
//	  "cost": "width",
//	  "graph": {"n": 4, "m": 3, "fingerprint": "9057…"},
//	  "solver": {"minimal_separators": 2, "pmcs": 4, "full_blocks": 4, "init_ms": 0,
//	             "atoms": 2, "largest_atom": 3},  // atom fields only when decomposed
//	  "results": [{"index": 0, "cost": 1, "width": 1, "fill": 0,
//	               "bags": [[0,1],[1,2]], "separators": [[1]]}, …]
//	}
//
// With "stream": true the response is application/x-ndjson: one result
// object per line in increasing cost order, terminated by a summary line
// {"done":true,"count":N}. No session is created; disconnecting cancels
// the enumeration.
//
// Solve knobs can also ride the query string on every POST route —
// ?backend=, ?orbits=, ?diverse=, ?window= — with a fixed precedence:
// query parameter over body field over server default. ?backend= takes
// "dp" (ranked, the default), "mis" (unranked, no solver init: the
// response says "ranked": false) or "auto" (a bounded separator probe
// picks one of the two); any other name is a 400 whose error lists
// these (inside /v1/batch, that member's error). ?diverse=k
// switches the response to a one-shot diverse portfolio: the first
// ?window= ranks (default 4k, capped at 4096) are materialized and k
// results are picked greedily to maximize the minimum pairwise fill-edge
// distance, always leading with the true optimum. The selection costs
// O(window · k) bitset distances over window · n · ⌈n/64⌉ words of fill
// rows (core.DiverseSelect). The response carries
// "diverse" and "window" (the pool actually examined), each result
// keeps its original rank as "index", and no session is created —
// diverse mode cannot combine with "stream".
//
// POST /v1/batch — submit many problems in one request:
//
//	{"problems": [{"graph6": "D?{", "cost": "fill"}, {"n": 4, "edges": [[0,1]]}, …]}
//
// Every member is an EnumerateRequest (graph, hypergraph or edge-list
// source; any cost; per-member diverse mode; "stream" is rejected
// inside a batch). All members are compiled before any is solved, then
// solved sequentially under a single admission slot — isomorphic
// members compile to the same canonical cache key, so N copies of one
// problem cost one solver build and one materialized stream. The
// response is {"items": [{"response": …} | {"error": "…"}, …],
// "errors": N}: per-member failures are recorded in place and do not
// fail the batch (the request itself 400s only for an empty or
// over-limit batch, Config.MaxBatchItems / -max-batch). Query knobs
// apply batch-wide.
//
// POST /v1/hypergraph — rank triangulations of a relation schema's
// primal graph. The body takes "hyperedges" only (graph6/edges are
// rejected here; /v1/enumerate still accepts hypergraph bodies
// unchanged), the cost defaults to "hypertree" (generalized hypertree
// width), and the response is the /v1/enumerate shape plus
//
//	"hypergraph": {"vertices": 9, "hyperedges": 6, "primal_edges": 15}
//
// Sessions, streaming and diverse mode all work as on /v1/enumerate.
//
// POST /v1/csp — rank decompositions of a binary CSP's constraint
// graph and optionally run the internal/csp dynamic program over the
// best one as the payoff:
//
//	{
//	  "domains": [3,3,3],                  // one variable per entry, |D_i| ≥ 1
//	  "constraints": [{"scope": [0,1],     // binary scope, x ≠ y
//	                   "allowed": [[0,1],[1,0]]}],  // allowed value pairs;
//	                                       // empty list = unsatisfiable constraint
//	  "cost": "statespace",                // default: Σ ∏ domains over bags
//	  "solve": true, "count": true         // run the DP on the top-ranked tree
//	}
//
// The enumeration ranks tree decompositions of the constraint graph
// (statespace under the declared domains models the DP's table work);
// with "solve"/"count" the response adds
//
//	"csp": {"satisfiable": true, "assignment": [0,1,0], "count": 6}
//
// computed by the join-tree DP over the top-ranked decomposition.
//
// GET /v1/sessions/{token}/next?page_size=N — the next page for a live
// session. Returns {"session","done","results"}; when done is true the
// session is closed and the token becomes invalid (404 afterwards).
// Adding &from=R recovers a page lost in flight: any rank the session
// has already committed is re-served from the shared stream buffer
// (page_size results starting at R, never advancing the cursor); R equal
// to the cursor pages normally; R beyond the cursor is a 409. Replay
// survives buffer eviction — the stream rebuilds deterministically — but
// not session closure: the final (done) page closes the session, so
// re-enumerate instead (the solver and usually the buffer are cached, so
// this is cheap).
//
// GET /v1/sessions/{token} — session metadata (emitted count, results
// buffered ahead of the cursor, idle time). DELETE /v1/sessions/{token}
// — close early.
//
// GET /v1/stats — cache hit rates, live/expired session counts, request
// totals, the ingress workload mix
//
//	"workloads": {"enumerate": 40, "batch": 3, "batch_problems": 24,
//	              "hypergraph": 5, "csp": 2, "csp_solves": 2, "diverse": 4}
//
// the requests served per backend
//
//	"backends": {"dp": 38, "mis": 4, "auto_resolved": 3}
//
// (auto_resolved counts the requests the auto probe routed; it overlaps
// the other two), and the incremental-solve counters aggregated over the
// cached solvers:
//
//	"solver": {"constrained_solves": 812, "dirty_blocks": 74692,
//	           "reused_blocks": 13820, "empty_solves": 96,
//	           "empty_branches": 431}
//
// Each Lawler–Murty branch of an enumeration re-solves only the blocks
// of the DP its constraint pair can affect (dirty_blocks) and reuses the
// solver's precomputed unconstrained baseline for the rest
// (reused_blocks); the reuse ratio measures how much enumeration work
// the incremental DP absorbs. A branch whose excluded separator no
// admissible separator crosses is proven empty and never solved
// (empty_branches); empty_solves counts the solves that still found
// nothing, so empty_solves / constrained_solves is the wasted-solve
// ratio.
//
// Stats also aggregate the clique-separator atom decompositions of the
// cached solvers:
//
//	"atoms": {"decomposed_solvers": 3, "total_atoms": 11, "largest_atom": 9}
//
// Graphs that split on clique minimal separators are solved one atom at
// a time with the ranked streams merged, so initialization and delay
// depend on the largest atom rather than the whole graph.
//
// Stats also report the shared ranked-stream cache:
//
//	"streams": {"streams": 2, "cursors": 9, "buffered_results": 420,
//	            "bytes": 501760, "budget_bytes": 67108864,
//	            "hits": 11, "misses": 2, "evictions": 0, "rebuilds": 0}
//
// A stream hit means a new session or NDJSON stream rode an existing
// materialized buffer instead of enumerating privately — N concurrent
// clients on one graph cost one enumeration, not N (see
// BenchmarkSharedStreamFanout and BENCH_stream.json).
//
// Stats also report how reads were served:
//
//	"prefetch": {"buffered_hits": 350, "demand_solves": 40,
//	             "prefetch_solves": 0}
//
// buffered_hits counts per-rank reads served straight from a buffer (no
// solve on the request's latency path) and demand_solves the enumerator
// steps waiting readers drove — all of the production work.
// prefetch_solves always reads 0: streams produce only on demand. GET
// /healthz — liveness.
//
// Errors are {"error": "…"} with a 4xx/5xx status: 400 for malformed
// graphs, unknown costs or bad knobs, 404 for unknown sessions, 413 when
// the request body exceeds Config.MaxBodyBytes (-max-body), 429 when the
// session table is full, 503 when admission or initialization is
// cancelled or times out, or when the server is shutting down.
package service
