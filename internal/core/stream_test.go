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
// enumeration from.
func enumerateFn(s *Solver) func() *Enumerator {
	return func() *Enumerator { return s.EnumerateContext(context.Background()) }
}

// resultSig is a comparable rendering of one result (cost + sorted bags),
// strict enough to detect any rank-order divergence.
func resultSig(r *Result) string {
	return fmt.Sprintf("%g|%v|%v", r.Cost, r.Bags, r.Seps)
}

// exhausted reports whether st has been driven to its end (every result
// is in the buffer), reading the flag under the stream's lock.
func exhausted(st *SharedStream) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.exhausted
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
	if !exhausted(st) || st.Buffered() != len(oracle) {
		t.Fatalf("exhausted stream should buffer everything: exhausted=%v buffered=%d", exhausted(st), st.Buffered())
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
	if st.Buffered() != 0 || exhausted(st) || st.Bytes() != 0 {
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

// TestSharedStreamPrefetchLifecycleChurn drives the buffered results
// through their whole lifecycle at once: concurrent cursors produce ranks
// on demand and read each other's buffered ranks while Reset truncates
// the buffer and TrimOver slides its window forward. Every read must
// match the oracle, and a final sequential pass over the quiesced stream
// must too. Run with -race in CI.
func TestSharedStreamPrefetchLifecycleChurn(t *testing.T) {
	s, oracle := newStreamSolver(t)
	st := NewSharedStream(enumerateFn(s))
	const cursors = 6
	var wg sync.WaitGroup
	errs := make(chan error, cursors)

	// Churners: truncation and window slides.
	var churn sync.WaitGroup
	churn.Add(2)
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
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final sequential pass over a quiesced stream.
	ctx := context.Background()
	for i := 0; i < len(oracle); i++ {
		r, ok, err := st.At(ctx, i)
		if !ok || err != nil || resultSig(r) != resultSig(oracle[i]) {
			t.Fatalf("final pass rank %d: ok=%v err=%v", i, ok, err)
		}
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

// TestResultSizeEstimate sanity-checks the footprint estimator used by
// the byte-budget stream cache: positive and monotone in result size.
func TestResultSizeEstimate(t *testing.T) {
	small := mustNew(gen.Cycle(5), cost.Width{}).TopK(context.Background(), 1)[0]
	large := mustNew(gen.Cycle(12), cost.Width{}).TopK(context.Background(), 1)[0]
	if small.SizeEstimate() <= 0 {
		t.Fatal("size estimate must be positive")
	}
	if large.SizeEstimate() <= small.SizeEstimate() {
		t.Fatalf("C12 result (%d bytes) should outweigh C5 result (%d bytes)",
			large.SizeEstimate(), small.SizeEstimate())
	}
}
