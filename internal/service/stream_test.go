package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// oracleLines renders a solver's full enumeration the way the wire does
// for a client that submitted g: each result relabeled through fromCanon
// (the egress permutation) by core.RelabelResult and converted by
// legacyResultJSON — the byte-identical reference every shared-stream
// consumer must match.
func oracleLines(t *testing.T, solver *core.Solver, g *graph.Graph, fromCanon []int) []string {
	t.Helper()
	e := solver.EnumerateContext(context.Background())
	var out []string
	for i := 0; ; i++ {
		r, ok := e.Next()
		if !ok {
			return out
		}
		b, err := json.Marshal(legacyResultJSON(g, i, core.RelabelResult(r, fromCanon)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
}

// TestStreamStoreSharing: two handles on one key share a buffer (hit),
// different keys do not, and releasing a produced buffer keeps it cached
// for the next consumer.
func TestStreamStoreSharing(t *testing.T) {
	store := NewStreamStore(0, 0)
	solver := mustSolver(gen.Cycle(6), cost.Width{})
	key := SolverKey{Fingerprint: "c6", Cost: "width", Bound: -1}

	h1 := store.Acquire(key, solver)
	h2 := store.Acquire(key, solver)
	if st := store.Stats(); st.Hits != 1 || st.Misses != 1 || st.Streams != 1 || st.Cursors != 2 {
		t.Fatalf("bad stats after two acquires: %+v", st)
	}
	r1, ok, err := h1.At(context.Background(), 0)
	if !ok || err != nil {
		t.Fatalf("At: ok=%v err=%v", ok, err)
	}
	r2, _, _ := h2.At(context.Background(), 0)
	if r1 != r2 {
		t.Fatal("handles on one key must share the materialized buffer")
	}
	other := store.Acquire(SolverKey{Fingerprint: "other"}, solver)
	if st := store.Stats(); st.Misses != 2 || st.Streams != 2 {
		t.Fatalf("distinct key should miss: %+v", st)
	}

	h1.Release()
	h1.Release() // idempotent
	h2.Release()
	if st := store.Stats(); st.Streams != 2 || st.Cursors != 1 {
		t.Fatalf("produced buffer should stay cached after release: %+v", st)
	}
	// A fresh consumer rides the cached buffer: no new production needed
	// for rank 0.
	h3 := store.Acquire(key, solver)
	if h3.Buffered() < 1 {
		t.Fatal("cached buffer lost its results")
	}
	h3.Release()
	// The never-produced entry is dropped once unreferenced.
	other.Release()
	if store.Len() != 1 {
		t.Fatalf("empty unreferenced stream should be dropped, have %d", store.Len())
	}
}

// TestStreamStoreEvictionAndRebuild forces byte-budget eviction of a cold
// stream and expects (a) its bytes reclaimed, (b) a later read to rebuild
// and replay the identical results.
func TestStreamStoreEvictionAndRebuild(t *testing.T) {
	ctx := context.Background()
	solverA := mustSolver(gen.Cycle(8), cost.FillIn{})
	solverB := mustSolver(gen.Cycle(9), cost.FillIn{})
	keyA := SolverKey{Fingerprint: "a"}
	keyB := SolverKey{Fingerprint: "b"}

	// Budget sized so one full C8 buffer fits but two streams do not.
	// Reads run past a touchStride multiple so the batched accounting has
	// registered the growth by the end of each phase.
	const reads = 2*touchStride + 8
	perResult := solverA.TopK(context.Background(), 1)[0].SizeEstimate()
	store := NewStreamStore(int64(reads)*perResult*4/3, 0)

	hA := store.Acquire(keyA, solverA)
	var sigA []string
	for i := 0; i < reads; i++ {
		r, ok, err := hA.At(ctx, i)
		if !ok || err != nil {
			t.Fatalf("A rank %d: ok=%v err=%v", i, ok, err)
		}
		sigA = append(sigA, fmt.Sprintf("%g|%v", r.Cost, r.Bags))
	}

	// Growing B past the budget must evict A (the LRU victim), not B.
	hB := store.Acquire(keyB, solverB)
	for i := 0; i < reads; i++ {
		if _, ok, err := hB.At(ctx, i); !ok || err != nil {
			t.Fatalf("B rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	st := store.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no eviction despite exceeding the budget: %+v", st)
	}
	if hA.Buffered() != 0 {
		t.Fatalf("LRU stream A should have been truncated, buffered=%d", hA.Buffered())
	}
	if hB.Buffered() == 0 {
		t.Fatal("the stream being grown must never self-evict")
	}

	// A's cursor still works: the stream rebuilds and replays byte-identically.
	for i := 0; i < reads; i++ {
		r, ok, err := hA.At(ctx, i)
		if !ok || err != nil {
			t.Fatalf("A rank %d after eviction: ok=%v err=%v", i, ok, err)
		}
		if got := fmt.Sprintf("%g|%v", r.Cost, r.Bags); got != sigA[i] {
			t.Fatalf("rank %d differs after rebuild:\n got %s\nwant %s", i, got, sigA[i])
		}
	}
	if st := store.Stats(); st.Rebuilds == 0 {
		t.Fatalf("rebuild not counted: %+v", st)
	}
	hA.Release()
	hB.Release()
}

// TestStreamStoreSelfTrimBounded: a single stream larger than the whole
// byte budget must not grow without bound — its window slides behind the
// reader instead (the lone-NDJSON-client memory guarantee).
func TestStreamStoreSelfTrimBounded(t *testing.T) {
	ctx := context.Background()
	solver := mustSolver(gen.Cycle(9), cost.FillIn{}) // 429 results
	perResult := solver.TopK(context.Background(), 1)[0].SizeEstimate()
	budget := 10 * perResult
	store := NewStreamStore(budget, 0)
	h := store.Acquire(SolverKey{Fingerprint: "c9"}, solver)
	defer h.Release()
	for i := 0; i < 200; i++ {
		if _, ok, err := h.At(ctx, i); !ok || err != nil {
			t.Fatalf("rank %d: ok=%v err=%v", i, ok, err)
		}
		// The window may overshoot by up to a touch stride of appends
		// before the batched accounting trims it.
		if b := store.Stats().Bytes; b > budget+int64(touchStride+2)*perResult {
			t.Fatalf("stream grew past the budget at rank %d: %d bytes (budget %d)", i, b, budget)
		}
	}
	if st := store.Stats(); st.BufferedResults >= 200 {
		t.Fatalf("window did not slide: %d results buffered", st.BufferedResults)
	}
	// A committed rank behind the window is still readable via rebuild.
	if _, ok, err := h.At(ctx, 0); !ok || err != nil {
		t.Fatalf("read behind the window: ok=%v err=%v", ok, err)
	}
}

// TestStreamStoreTrimRespectsSlowCursor: the budget trim must never
// slide the window past a live lagging cursor — doing so would make the
// laggard's next read Reset the stream and the leader re-enumerate its
// whole prefix, a ping-pong costing more than the memory saved.
func TestStreamStoreTrimRespectsSlowCursor(t *testing.T) {
	ctx := context.Background()
	solver := mustSolver(gen.Cycle(9), cost.FillIn{}) // 429 results
	perResult := solver.TopK(context.Background(), 1)[0].SizeEstimate()
	store := NewStreamStore(10*perResult, 0)
	slow := store.Acquire(SolverKey{Fingerprint: "c9"}, solver)
	fast := store.Acquire(SolverKey{Fingerprint: "c9"}, solver)
	defer slow.Release()
	defer fast.Release()

	// The slow cursor parks at rank 5; the fast one races far past the
	// budget. The window must keep every rank >= 5 materialized.
	for i := 0; i <= 5; i++ {
		if _, ok, err := slow.At(ctx, i); !ok || err != nil {
			t.Fatalf("slow rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 150; i++ {
		if _, ok, err := fast.At(ctx, i); !ok || err != nil {
			t.Fatalf("fast rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	solves := solver.ReuseStats().ConstrainedSolves
	// The slow cursor resumes through the fast cursor's wake: every rank
	// must come from the buffer, with no rebuild and no re-enumeration.
	for i := 6; i < 150; i++ {
		if _, ok, err := slow.At(ctx, i); !ok || err != nil {
			t.Fatalf("slow resume rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	if r := store.Stats().Rebuilds; r != 0 {
		t.Fatalf("trim crossed a live cursor: %d rebuilds", r)
	}
	if after := solver.ReuseStats().ConstrainedSolves; after != solves {
		t.Fatalf("slow cursor re-enumerated: %d -> %d constrained solves", solves, after)
	}
}

// TestStreamStoreEntryCap: unreferenced entries beyond the entry cap are
// dropped (they pin solvers, so the byte budget alone is not enough).
func TestStreamStoreEntryCap(t *testing.T) {
	ctx := context.Background()
	store := NewStreamStore(0, 2)
	for i := 0; i < 5; i++ {
		solver := mustSolver(gen.Cycle(5), cost.Width{})
		h := store.Acquire(SolverKey{Fingerprint: fmt.Sprintf("g%d", i)}, solver)
		if _, ok, err := h.At(ctx, 0); !ok || err != nil {
			t.Fatalf("graph %d: ok=%v err=%v", i, ok, err)
		}
		h.Release()
	}
	if n := store.Len(); n > 2 {
		t.Fatalf("entry cap 2 exceeded: %d entries", n)
	}
	// Referenced entries survive the cap even when it is exceeded.
	var held []*StreamHandle
	for i := 0; i < 4; i++ {
		solver := mustSolver(gen.Cycle(5), cost.Width{})
		h := store.Acquire(SolverKey{Fingerprint: fmt.Sprintf("h%d", i)}, solver)
		if _, ok, err := h.At(ctx, 0); !ok || err != nil {
			t.Fatalf("held graph %d: ok=%v err=%v", i, ok, err)
		}
		held = append(held, h)
	}
	if st := store.Stats(); st.Cursors != 4 {
		t.Fatalf("want 4 live cursors, got %+v", st)
	}
	for _, h := range held {
		if _, ok, err := h.At(ctx, 1); !ok || err != nil {
			t.Fatalf("held handle unusable: ok=%v err=%v", ok, err)
		}
		h.Release()
	}
}

// TestSessionInfoBufferedAhead: results materialized by one cursor count
// as buffered-ahead work for a colder cursor on the same key.
func TestSessionInfoBufferedAhead(t *testing.T) {
	m := NewSessionManager(4, time.Minute, nil)
	defer m.Close()
	solver := mustSolver(gen.Cycle(7), cost.Width{})
	key := SolverKey{Fingerprint: "c7"}
	warm, err := m.Create(solver, key, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Create(solver, key, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := warm.NextPage(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if info := warm.Info(); info.Emitted != 10 || info.BufferedAhead != 0 {
		t.Fatalf("warm cursor info: %+v", info)
	}
	if info := cold.Info(); info.Emitted != 0 || info.BufferedAhead != 10 {
		t.Fatalf("cold cursor should see 10 buffered ranks ahead: %+v", info)
	}
	// The cold cursor's first page does zero solving work.
	before := solver.ReuseStats().ConstrainedSolves
	if _, results, _, err := cold.NextPage(context.Background(), 10); err != nil || len(results) != 10 {
		t.Fatalf("cold page: n=%d err=%v", len(results), err)
	}
	if after := solver.ReuseStats().ConstrainedSolves; after != before {
		t.Fatalf("cold cursor re-solved: %d -> %d constrained solves", before, after)
	}
}

// TestReplayAcrossPagesAndEviction is the dropped-connection recovery
// regression test: a cursor pages deep, then replays ranks several pages
// back — including after the byte budget evicted the buffer, which must
// rebuild and serve the same results.
func TestReplayAcrossPagesAndEviction(t *testing.T) {
	solver := mustSolver(gen.Cycle(8), cost.FillIn{})
	key := SolverKey{Fingerprint: "c8"}
	store := NewStreamStore(0, 0)
	m := NewSessionManager(4, time.Minute, store)
	defer m.Close()
	sess, err := m.Create(solver, key, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var committed []*core.Result
	for p := 0; p < 5; p++ {
		_, results, _, err := sess.NextPage(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		committed = append(committed, results...)
	}

	// Replay a window three pages back.
	start, results, done, ok, err := sess.Replay(ctx, 6, 4)
	if !ok || err != nil || done {
		t.Fatalf("replay(6,4): ok=%v done=%v err=%v", ok, done, err)
	}
	if start != 6 || len(results) != 4 {
		t.Fatalf("replay window: start=%d n=%d", start, len(results))
	}
	for i, r := range results {
		if r != committed[6+i] {
			t.Fatalf("replayed rank %d is not the committed result", 6+i)
		}
	}
	// Replay clamps at the cursor and never advances it.
	if _, results, _, ok, _ := sess.Replay(ctx, 18, 100); !ok || len(results) != 2 {
		t.Fatalf("replay(18,100) should clamp to the cursor: ok=%v n=%d", ok, len(results))
	}
	if sess.Info().Emitted != 20 {
		t.Fatalf("replay advanced the cursor to %d", sess.Info().Emitted)
	}
	// Beyond the cursor: not replayable.
	if _, _, _, ok, _ := sess.Replay(ctx, 21, 4); ok {
		t.Fatal("rank beyond the cursor must not be replayable")
	}

	// Evict the buffer out from under the cursor, then replay again: the
	// stream rebuilds deterministically and the ranks come back equal.
	sig := func(r *core.Result) string { return fmt.Sprintf("%g|%v", r.Cost, r.Bags) }
	want := make([]string, len(committed))
	for i, r := range committed {
		want[i] = sig(r)
	}
	for _, e := range store.entries {
		e.stream.Reset()
	}
	start, results, _, ok, err = sess.Replay(ctx, 0, 20)
	if !ok || err != nil || start != 0 || len(results) != 20 {
		t.Fatalf("replay after eviction: ok=%v err=%v start=%d n=%d", ok, err, start, len(results))
	}
	for i, r := range results {
		if sig(r) != want[i] {
			t.Fatalf("rank %d differs after eviction+rebuild", i)
		}
	}
}

// TestSharedStreamFanoutOracle is the stress test: many concurrent paging
// sessions and NDJSON streams on the same fingerprint, under a byte
// budget tight enough to force mid-run evictions and rebuilds, must each
// see the byte-identical rank order of a solo enumerator. Run with -race
// in CI.
func TestSharedStreamFanoutOracle(t *testing.T) {
	// The server enumerates the canonical form of the submitted C8 and
	// relabels every result back on egress. The oracle takes the same path
	// outside the serving tier: a solo enumeration of the canonical form,
	// each result mapped through the inverse of the canonical permutation.
	g := gen.Cycle(8) // Catalan(6) = 132 minimal triangulations
	canonG, perm, exact := g.CanonicalForm()
	if !exact {
		t.Fatal("C8 canonical labeling fell back to the identity")
	}
	fromCanon := make([]int, len(perm))
	for v, p := range perm {
		fromCanon[p] = v
	}
	oracleSolver := mustSolver(canonG, cost.FillIn{})
	want := oracleLines(t, oracleSolver, g, fromCanon)
	if len(want) != 132 {
		t.Fatalf("C8 oracle: want 132 results, got %d", len(want))
	}

	// A budget of ~25 results over a 132-result stream forces repeated
	// eviction/rebuild while the fan-out is mid-flight.
	budget := 25 * oracleSolver.TopK(context.Background(), 1)[0].SizeEstimate()
	_, ts := newTestServer(t, Config{StreamBudgetBytes: budget, MaxConcurrent: 16, MaxSessions: 64})
	g6 := cycleGraph6(t, 8)

	const pagers, streamers = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, pagers+streamers)
	collect := func(idx int, lines []string, err error) {
		if err != nil {
			errs <- fmt.Errorf("client %d: %v", idx, err)
			return
		}
		if len(lines) != len(want) {
			errs <- fmt.Errorf("client %d: got %d results, want %d", idx, len(lines), len(want))
			return
		}
		for i := range lines {
			if lines[i] != want[i] {
				errs <- fmt.Errorf("client %d: rank %d differs from solo enumerator:\n got %s\nwant %s", idx, i, lines[i], want[i])
				return
			}
		}
	}

	for c := 0; c < pagers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			lines, err := pageAll(ts, g6, 7)
			collect(idx, lines, err)
		}(c)
	}
	for c := 0; c < streamers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			lines, err := streamAll(ts, g6)
			collect(pagers+idx, lines, err)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pageAll drives one paging session to exhaustion and returns the result
// lines in rank order.
func pageAll(ts *httptest.Server, g6 string, pageSize int) ([]string, error) {
	body := fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": %d}`, g6, pageSize)
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("enumerate: status %d", resp.StatusCode)
	}
	var page EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, err
	}
	lines, err := appendResultLines(nil, page.Results)
	if err != nil {
		return nil, err
	}
	for !page.Done {
		next, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?page_size=%d", ts.URL, page.Session, pageSize))
		if err != nil {
			return nil, err
		}
		if next.StatusCode != http.StatusOK {
			next.Body.Close()
			return nil, fmt.Errorf("next: status %d", next.StatusCode)
		}
		var np EnumerateResponse
		err = json.NewDecoder(next.Body).Decode(&np)
		next.Body.Close()
		if err != nil {
			return nil, err
		}
		if np.Session != "" {
			page.Session = np.Session
		}
		page.Done = np.Done
		if lines, err = appendResultLines(lines, np.Results); err != nil {
			return nil, err
		}
	}
	return lines, nil
}

// streamAll reads one NDJSON stream to its summary line.
func streamAll(ts *httptest.Server, g6 string) ([]string, error) {
	return streamAllBody(ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "stream": true}`, g6))
}

// streamAllBody is streamAll over a raw request body.
func streamAllBody(ts *httptest.Server, body string) ([]string, error) {
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.Contains(line, `"count"`) { // summary line
			var sum struct {
				Done  bool `json:"done"`
				Count int  `json:"count"`
			}
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				return nil, err
			}
			if !sum.Done || sum.Count != len(lines) {
				return nil, fmt.Errorf("bad summary %s after %d lines", line, len(lines))
			}
			return lines, sc.Err()
		}
		lines = append(lines, line)
	}
	return nil, fmt.Errorf("stream ended without a summary line (%d lines): %v", len(lines), sc.Err())
}

// appendResultLines re-marshals wire results into canonical NDJSON lines
// so paged and streamed output compare byte-for-byte.
func appendResultLines(lines []string, results []TriangulationJSON) ([]string, error) {
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(b))
	}
	return lines, nil
}

// TestStreamStoreOracleUnderEviction drives concurrent cursors on two
// keys, whose streams solve branches over GOMAXPROCS goroutines, under a
// byte budget tight enough to evict and rebuild streams while cursors
// are mid-read and references churn. Oracle: every cursor sees the byte-identical rank
// order of a solo enumerator. Run with -race in CI.
func TestStreamStoreOracleUnderEviction(t *testing.T) {
	graphs := []struct {
		key SolverKey
		g   *graph.Graph
	}{
		{SolverKey{Fingerprint: "c8"}, gen.Cycle(8)}, // 132 results
		{SolverKey{Fingerprint: "c9"}, gen.Cycle(9)}, // 429 results
	}
	sig := func(r *core.Result) string { return fmt.Sprintf("%g|%v", r.Cost, r.Bags) }
	oracles := make([][]string, len(graphs))
	solvers := make([]*core.Solver, len(graphs))
	for i, gr := range graphs {
		solvers[i] = mustSolver(gr.g, cost.FillIn{})
		o := mustSolver(gr.g, cost.FillIn{})
		e := o.EnumerateContext(context.Background())
		for {
			r, ok := e.Next()
			if !ok {
				break
			}
			oracles[i] = append(oracles[i], sig(r))
		}
	}

	// ~20 results of budget across two streams of 132 and 429 results
	// forces repeated eviction/rebuild mid-read.
	budget := 20 * solvers[0].TopK(context.Background(), 1)[0].SizeEstimate()
	store := NewStreamStore(budget, 0)

	const cursorsPerKey = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(graphs)*cursorsPerKey)
	for gi := range graphs {
		for c := 0; c < cursorsPerKey; c++ {
			wg.Add(1)
			go func(gi, c int) {
				defer wg.Done()
				ctx := context.Background()
				h := store.Acquire(graphs[gi].key, solvers[gi])
				defer h.Release()
				// Churn the refcount on one cursor per key so the last-release
				// and re-acquire paths interleave with the eviction traffic.
				if c == 0 {
					h.Release()
					h = store.Acquire(graphs[gi].key, solvers[gi])
					defer h.Release()
				}
				for i := 0; i < len(oracles[gi]); i++ {
					r, ok, err := h.At(ctx, i)
					if err != nil {
						errs <- fmt.Errorf("key %d rank %d: %v", gi, i, err)
						return
					}
					if !ok {
						errs <- fmt.Errorf("key %d: spurious exhaustion at rank %d", gi, i)
						return
					}
					if sig(r) != oracles[gi][i] {
						errs <- fmt.Errorf("key %d rank %d differs from solo enumerator under eviction churn", gi, i)
						return
					}
				}
			}(gi, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Evictions == 0 {
		t.Fatalf("budget never forced an eviction — test exercised nothing: %+v", st)
	}
}

// TestStreamsLeaveNoGoroutine: streams produce only on demand, so once a
// paged session is deleted no goroutine is left inside a shared stream —
// an abandoned stream holds memory until the budget reclaims it, never a
// parked producer.
func TestStreamsLeaveNoGoroutine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 3}`, cycleGraph6(t, 9)))
	if first.Session == "" {
		t.Fatal("C9 has 429 results; a 3-result page must leave a session")
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+first.Session, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "core.(*SharedStream)") {
			t.Fatalf("a goroutine is still inside a shared stream after its session was deleted:\n%s", g)
		}
	}
}

// TestStatsStreamCounters: /v1/stats surfaces the stream cache block with
// hits and buffered bytes after a shared fan-out, and the prefetch block
// splits the reads: the first consumer solved every rank on demand, the
// second read every rank from the buffer.
func TestStatsStreamCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	body := fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6)
	postEnumerate(t, ts, body)
	postEnumerate(t, ts, body)
	stats := getStats(t, ts)
	if stats.Streams.Misses != 1 || stats.Streams.Hits < 1 {
		t.Fatalf("second submission should hit the stream cache: %+v", stats.Streams)
	}
	if stats.Streams.BufferedResults != 14 || stats.Streams.Bytes <= 0 {
		t.Fatalf("C6 buffer should hold 14 results with bytes > 0: %+v", stats.Streams)
	}
	if stats.Streams.BudgetBytes != defaultStreamBudget {
		t.Fatalf("default budget not reported: %+v", stats.Streams)
	}
	if p := stats.Prefetch; p.DemandSolves != 14 || p.BufferedHits != 14 || p.PrefetchSolves != 0 {
		t.Fatalf("want 14 demand solves, 14 buffered hits, 0 prefetch solves: %+v", p)
	}
}

// TestStreamStatsRebuildsMonotoneAcrossDrop: the /v1/stats rebuilds
// counter is monotone. Rebuild counts live on the stream entries, so
// dropping an entry (entry-cap churn, release of an empty stream) used to
// subtract its rebuilds from the next snapshot — a monotone wire counter
// that went backwards. Dropped entries' counts must fold into the retired
// aggregate, exactly like the read/solve counters.
func TestStreamStatsRebuildsMonotoneAcrossDrop(t *testing.T) {
	ctx := context.Background()
	store := NewStreamStore(0, 1)
	solver := mustSolver(gen.Cycle(6), cost.Width{})
	keyA := SolverKey{Fingerprint: "a"}

	h := store.Acquire(keyA, solver)
	for i := 0; i < 5; i++ {
		if _, ok, err := h.At(ctx, i); !ok || err != nil {
			t.Fatalf("rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Force a rebuild: reset the buffer behind the cursor's back (what a
	// budget eviction does) and re-demand a committed rank.
	store.mu.Lock()
	store.entries[keyA].stream.Reset()
	store.mu.Unlock()
	if _, ok, err := h.At(ctx, 0); !ok || err != nil {
		t.Fatalf("re-demand after reset: ok=%v err=%v", ok, err)
	}
	before := store.Stats().Rebuilds
	if before == 0 {
		t.Fatal("rebuild not counted")
	}
	h.Release()

	// Acquiring a second key over the cap drops A's (unreferenced) entry.
	h2 := store.Acquire(SolverKey{Fingerprint: "b"}, mustSolver(gen.Cycle(5), cost.Width{}))
	defer h2.Release()
	if _, ok, err := h2.At(ctx, 0); !ok || err != nil {
		t.Fatalf("second stream: ok=%v err=%v", ok, err)
	}
	if store.Contains(keyA) {
		t.Fatal("entry cap did not drop the unreferenced entry; the test exercises nothing")
	}
	if after := store.Stats().Rebuilds; after < before {
		t.Fatalf("rebuilds went backwards across an entry drop: %d -> %d", before, after)
	}
}
