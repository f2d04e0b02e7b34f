package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gen"
)

// drainEnumerator collects the full enumeration of a fresh enumerator —
// the oracle sequence the shared stream must reproduce.
func drainEnumerator(s *Solver) []*Result {
	var out []*Result
	e := s.EnumerateContext(context.Background())
	for {
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// enumerateFn is the factory a shared stream over s (re)builds its
// sequential enumeration from.
func enumerateFn(s *Solver) func() *Enumerator {
	return func() *Enumerator { return s.EnumerateContext(context.Background()) }
}

// resultSig is a comparable rendering of one result (cost + sorted bags),
// strict enough to detect any rank-order divergence.
func resultSig(r *Result) string {
	return fmt.Sprintf("%g|%v|%v", r.Cost, r.Bags, r.Seps)
}

func newStreamSolver(t testing.TB) (*Solver, []*Result) {
	t.Helper()
	s := mustNew(gen.Cycle(7), cost.FillIn{})
	oracle := drainEnumerator(s)
	if len(oracle) != 42 { // Catalan(5) = 42 polygon triangulations
		t.Fatalf("C7 oracle: want 42 results, got %d", len(oracle))
	}
	return s, oracle
}

// TestSharedStreamMatchesEnumerator reads the stream sequentially and
// expects the exact private-enumerator sequence.
func TestSharedStreamMatchesEnumerator(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	ctx := context.Background()
	for i := 0; ; i++ {
		r, ok, err := st.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(oracle) {
				t.Fatalf("stream exhausted at rank %d, oracle has %d", i, len(oracle))
			}
			break
		}
		if resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("rank %d differs from oracle", i)
		}
	}
	if !st.Exhausted() || st.Buffered() != len(oracle) {
		t.Fatalf("exhausted stream should buffer everything: exhausted=%v buffered=%d", st.Exhausted(), st.Buffered())
	}
	if st.Bytes() <= 0 {
		t.Fatal("buffered stream reports no bytes")
	}
	// Random access into the buffer, including past the end.
	if r, ok, _ := st.At(ctx, 0); !ok || resultSig(r) != resultSig(oracle[0]) {
		t.Fatal("re-reading rank 0 failed")
	}
	if _, ok, err := st.At(ctx, len(oracle)+5); ok || err != nil {
		t.Fatalf("rank past exhaustion: ok=%v err=%v", ok, err)
	}
}

// TestSharedStreamConcurrentCursors fans many goroutines over one stream,
// each walking every rank, and expects byte-identical sequences — the
// per-rank singleflight must never tear or reorder the buffer.
func TestSharedStreamConcurrentCursors(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	const cursors = 16
	var wg sync.WaitGroup
	errs := make(chan error, cursors)
	for c := 0; c < cursors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				r, ok, err := st.At(ctx, i)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					if i != len(oracle) {
						errs <- fmt.Errorf("cursor exhausted at %d, want %d", i, len(oracle))
					}
					return
				}
				if resultSig(r) != resultSig(oracle[i]) {
					errs <- fmt.Errorf("rank %d differs from oracle", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedStreamResetReplaysDeterministically truncates the buffer
// mid-enumeration (and again after exhaustion) and expects the rebuild to
// replay the identical prefix — the property byte-budget eviction relies
// on.
func TestSharedStreamResetReplaysDeterministically(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, ok, err := st.At(ctx, i); !ok || err != nil {
			t.Fatalf("prefix read %d: ok=%v err=%v", i, ok, err)
		}
	}
	st.Reset()
	if st.Buffered() != 0 || st.Exhausted() || st.Bytes() != 0 {
		t.Fatalf("reset left state behind: buffered=%d bytes=%d", st.Buffered(), st.Bytes())
	}
	// A cursor parked at rank 25 forces a rebuild that replays 0..25.
	r, ok, err := st.At(ctx, 25)
	if !ok || err != nil {
		t.Fatalf("post-reset read: ok=%v err=%v", ok, err)
	}
	if resultSig(r) != resultSig(oracle[25]) {
		t.Fatal("rebuilt stream diverged from the oracle at rank 25")
	}
	if st.Rebuilds() != 1 {
		t.Fatalf("want 1 rebuild, got %d", st.Rebuilds())
	}
	for i := 0; i < len(oracle); i++ {
		r, ok, err := st.At(ctx, i)
		if !ok || err != nil {
			t.Fatalf("rank %d after rebuild: ok=%v err=%v", i, ok, err)
		}
		if resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("rank %d differs after rebuild", i)
		}
	}
	// Reset after exhaustion clears the exhausted flag too.
	st.Reset()
	if _, ok, _ := st.At(ctx, len(oracle)-1); !ok {
		t.Fatal("second rebuild did not reach the last rank")
	}
	if st.Rebuilds() != 2 {
		t.Fatalf("want 2 rebuilds, got %d", st.Rebuilds())
	}
}

// TestSharedStreamResetUnderConcurrency hammers At from many goroutines
// while another goroutine repeatedly resets; every successfully read rank
// must match the oracle (generation checks must drop stale in-flight
// results rather than splicing them at the wrong index).
func TestSharedStreamResetUnderConcurrency(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	const cursors = 8
	var wg sync.WaitGroup
	errs := make(chan error, cursors)
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		// Bounded churn: 30 resets spaced out enough for production to be
		// in flight, then quiesce so the cursors can finish.
		defer resetter.Done()
		for i := 0; i < 30; i++ {
			time.Sleep(300 * time.Microsecond)
			st.Reset()
		}
	}()
	for c := 0; c < cursors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < len(oracle); i++ {
				r, ok, err := st.At(ctx, i)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- fmt.Errorf("spurious exhaustion at rank %d", i)
					return
				}
				if resultSig(r) != resultSig(oracle[i]) {
					errs <- fmt.Errorf("rank %d differs under reset churn", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	resetter.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedStreamTrimOverWindow slides the buffer window forward and
// checks that reads above the window are free, reads below it trigger a
// deterministic rebuild, and byte accounting follows the window.
func TestSharedStreamTrimOverWindow(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, ok, err := st.At(ctx, i); !ok || err != nil {
			t.Fatalf("prefix read %d: ok=%v err=%v", i, ok, err)
		}
	}
	full := st.Bytes()
	st.TrimOver(full/2, 15) // drop oldest ranks below 15 until under half
	if st.Bytes() > full/2 {
		t.Fatalf("trim left %d bytes, want <= %d", st.Bytes(), full/2)
	}
	if st.Produced() != 20 {
		t.Fatalf("trim must not move the production mark: %d", st.Produced())
	}
	if st.Buffered() >= 20 {
		t.Fatalf("trim dropped nothing: buffered=%d", st.Buffered())
	}
	// Ranks inside and above the window read without a rebuild.
	if r, ok, err := st.At(ctx, 19); !ok || err != nil || resultSig(r) != resultSig(oracle[19]) {
		t.Fatalf("windowed read: ok=%v err=%v", ok, err)
	}
	if r, ok, err := st.At(ctx, 21); !ok || err != nil || resultSig(r) != resultSig(oracle[21]) {
		t.Fatalf("read past the window end: ok=%v err=%v", ok, err)
	}
	if st.Rebuilds() != 0 {
		t.Fatalf("no rebuild expected yet, got %d", st.Rebuilds())
	}
	// A rank below the window forces the rebuild-and-replay path.
	if r, ok, err := st.At(ctx, 0); !ok || err != nil || resultSig(r) != resultSig(oracle[0]) {
		t.Fatalf("read below the window: ok=%v err=%v", ok, err)
	}
	if st.Rebuilds() != 1 {
		t.Fatalf("want 1 rebuild after reading below the window, got %d", st.Rebuilds())
	}
}

// TestSharedStreamContextCancellation: a cancelled waiter returns the
// context error without corrupting the stream for others.
func TestSharedStreamContextCancellation(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := st.At(cancelled, 0); err == nil {
		t.Fatal("cancelled context should surface an error")
	}
	if r, ok, err := st.At(context.Background(), 0); !ok || err != nil || resultSig(r) != resultSig(oracle[0]) {
		t.Fatalf("stream unusable after a cancelled read: ok=%v err=%v", ok, err)
	}
}

// waitFor polls cond for up to two seconds — for asserting that the
// asynchronous speculative producer eventually reaches a state.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settled returns a production count that has stopped changing: two
// consecutive observations a pause apart agree. Needed before asserting
// "the producer does NOT go further" — a pause/stop call can still have
// one in-flight solve that legitimately commits.
func settled(st *SharedStream) int {
	for {
		p := st.Produced()
		time.Sleep(20 * time.Millisecond)
		if st.Produced() == p {
			return p
		}
	}
}

// TestSharedStreamPrefetchRunsAhead: after one demanded rank the
// speculative producer fills the buffer exactly to demand + lookahead and
// stops there; the prefetched sequence is byte-identical to the oracle.
func TestSharedStreamPrefetchRunsAhead(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	const ahead = 10
	st.ConfigurePrefetch(ahead, 0)
	ctx := context.Background()
	if st.Produced() != 0 {
		t.Fatal("prefetch must not run before first demand")
	}
	r, ok, err := st.At(ctx, 0)
	if !ok || err != nil || resultSig(r) != resultSig(oracle[0]) {
		t.Fatalf("rank 0: ok=%v err=%v", ok, err)
	}
	// Demand mark is 1, so the producer should reach exactly 1 + ahead.
	waitFor(t, "lookahead to fill", func() bool { return st.Produced() >= 1+ahead })
	if p := settled(st); p != 1+ahead {
		t.Fatalf("producer overran the lookahead budget: produced %d, want %d", p, 1+ahead)
	}
	ps := st.PrefetchStats()
	if ps.PrefetchSolves < ahead {
		t.Fatalf("want >= %d prefetch solves, got %+v", ahead, ps)
	}
	if ps.LookaheadHighWater != ahead {
		t.Fatalf("lookahead high water: want %d, got %d", ahead, ps.LookaheadHighWater)
	}
	// Ranks inside the lookahead are buffer hits; the full sequence is
	// byte-identical to the prefetch-off enumeration.
	hitsBefore := ps.Hits
	for i := 0; i < len(oracle); i++ {
		r, ok, err := st.At(ctx, i)
		if !ok || err != nil {
			t.Fatalf("rank %d: ok=%v err=%v", i, ok, err)
		}
		if resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("rank %d differs from the prefetch-off oracle", i)
		}
	}
	if _, ok, err := st.At(ctx, len(oracle)); ok || err != nil {
		t.Fatalf("past the end: ok=%v err=%v", ok, err)
	}
	if ps = st.PrefetchStats(); ps.Hits < hitsBefore+ahead {
		t.Fatalf("prefetched ranks should read as buffer hits: %+v", ps)
	}
}

// TestSharedStreamPrefetchPauseResume: pausing parks the producer (after
// at most one in-flight solve), resuming finishes the job.
func TestSharedStreamPrefetchPauseResume(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	st.ConfigurePrefetch(len(oracle)+10, 0) // budget beyond the stream end
	ctx := context.Background()
	if _, ok, err := st.At(ctx, 0); !ok || err != nil {
		t.Fatalf("rank 0: ok=%v err=%v", ok, err)
	}
	st.PausePrefetch()
	p := settled(st)
	if p == len(oracle) && st.Exhausted() {
		t.Skip("enumeration finished before the pause landed") // tiny-graph race, nothing to assert
	}
	time.Sleep(30 * time.Millisecond)
	if got := st.Produced(); got != p {
		t.Fatalf("paused producer kept producing: %d -> %d", p, got)
	}
	st.ResumePrefetch()
	waitFor(t, "resume to exhaust the stream", st.Exhausted)
	ps := st.PrefetchStats()
	if ps.Pauses != 1 || ps.Resumes != 1 {
		t.Fatalf("want 1 pause and 1 resume, got %+v", ps)
	}
	// The buffer the producer built is still the oracle sequence.
	for i := range oracle {
		if r, ok, _ := st.At(ctx, i); !ok || resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("rank %d differs after pause/resume", i)
		}
	}
}

// TestSharedStreamPrefetchStopTerminates: StopPrefetch ends speculation
// for good, while demand-driven At keeps working.
func TestSharedStreamPrefetchStopTerminates(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	st.ConfigurePrefetch(len(oracle)+10, 0)
	ctx := context.Background()
	if _, ok, err := st.At(ctx, 0); !ok || err != nil {
		t.Fatalf("rank 0: ok=%v err=%v", ok, err)
	}
	st.StopPrefetch()
	p := settled(st)
	time.Sleep(30 * time.Millisecond)
	if got := st.Produced(); got != p {
		t.Fatalf("stopped producer kept producing: %d -> %d", p, got)
	}
	// Demand production is unaffected — the whole stream is still readable.
	for i := 0; i < len(oracle); i++ {
		if r, ok, err := st.At(ctx, i); !ok || err != nil || resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("rank %d after stop: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestSharedStreamPrefetchByteCeiling: speculation stops at the byte
// ceiling; demand production is not limited by it.
func TestSharedStreamPrefetchByteCeiling(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	per := oracle[0].SizeEstimate()
	st.ConfigurePrefetch(len(oracle)+10, 5*per)
	ctx := context.Background()
	if _, ok, err := st.At(ctx, 0); !ok || err != nil {
		t.Fatalf("rank 0: ok=%v err=%v", ok, err)
	}
	waitFor(t, "speculation to reach the ceiling", func() bool { return st.Produced() >= 5 })
	if p := settled(st); p >= len(oracle)/2 {
		t.Fatalf("byte ceiling ignored: produced %d of %d", p, len(oracle))
	}
	// A demand read deep past the ceiling still works.
	if r, ok, err := st.At(ctx, 30); !ok || err != nil || resultSig(r) != resultSig(oracle[30]) {
		t.Fatalf("demand read past ceiling: ok=%v err=%v", ok, err)
	}
}

// TestSharedStreamPrefetchLifecycleChurn is the satellite race test:
// concurrent cursors drive the stream while Reset, TrimOver and
// pause/resume churn against the speculative producer. Every read must
// match the oracle, and a final sequential pass must too — byte-identical
// rank order with prefetch on vs. off. Run with -race in CI.
func TestSharedStreamPrefetchLifecycleChurn(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	st.ConfigurePrefetch(8, 0)
	const cursors = 6
	var wg sync.WaitGroup
	errs := make(chan error, cursors)
	stop := make(chan struct{})

	// Churners: truncation, window slides, pause/resume flapping.
	var churn sync.WaitGroup
	churn.Add(3)
	go func() {
		defer churn.Done()
		for i := 0; i < 25; i++ {
			time.Sleep(400 * time.Microsecond)
			st.Reset()
		}
	}()
	go func() {
		defer churn.Done()
		for i := 0; i < 25; i++ {
			time.Sleep(300 * time.Microsecond)
			st.TrimOver(0, 10+i%10)
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.PausePrefetch()
			time.Sleep(200 * time.Microsecond)
			st.ResumePrefetch()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for c := 0; c < cursors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < len(oracle); i++ {
				r, ok, err := st.At(ctx, i)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- fmt.Errorf("spurious exhaustion at rank %d", i)
					return
				}
				if resultSig(r) != resultSig(oracle[i]) {
					errs <- fmt.Errorf("rank %d differs under lifecycle churn", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final sequential pass over a quiesced stream.
	st.ResumePrefetch()
	ctx := context.Background()
	for i := 0; i < len(oracle); i++ {
		r, ok, err := st.At(ctx, i)
		if !ok || err != nil || resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("final pass rank %d: ok=%v err=%v", i, ok, err)
		}
	}
	st.StopPrefetch()
}

// TestResultSizeEstimate sanity-checks the footprint estimator used by
// the byte-budget stream cache: positive and monotone in result size.
func TestResultSizeEstimate(t *testing.T) {
	small := mustNew(gen.Cycle(5), cost.Width{}).TopK(context.Background(), 1, 0)[0]
	large := mustNew(gen.Cycle(12), cost.Width{}).TopK(context.Background(), 1, 0)[0]
	if small.SizeEstimate() <= 0 {
		t.Fatal("size estimate must be positive")
	}
	if large.SizeEstimate() <= small.SizeEstimate() {
		t.Fatalf("C12 result (%d bytes) should outweigh C5 result (%d bytes)",
			large.SizeEstimate(), small.SizeEstimate())
	}
}
