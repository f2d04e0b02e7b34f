package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
)

// TestNewSolverContextBackground checks that a background context never
// fails and that the solver it yields matches one built under a live
// cancellable context.
func TestNewSolverContextBackground(t *testing.T) {
	g := gen.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(ctx, g, cost.Width{}, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := mustNew(g, cost.Width{})
	if len(s.MinimalSeparators()) != len(ref.MinimalSeparators()) || len(s.PMCs()) != len(ref.PMCs()) {
		t.Fatalf("context solver differs from background solver: %d/%d seps, %d/%d pmcs",
			len(s.MinimalSeparators()), len(ref.MinimalSeparators()), len(s.PMCs()), len(ref.PMCs()))
	}
}

func TestNewSolverContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.PaperExample()
	if s, err := New(ctx, g, cost.Width{}, Options{}); err == nil {
		t.Fatalf("want error from cancelled init, got solver %v", s)
	} else if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	bound := 3
	if _, err := New(ctx, g, cost.Width{}, Options{WidthBound: &bound}); err == nil {
		t.Fatal("want error from cancelled bounded init")
	}
}

// TestNewBuildsEverySubSolver pins that a decomposed solver is finished
// when New returns, whatever the context: under a background context
// every per-atom sub-solver is already built, and the parent's
// InitDuration covers each of their builds.
func TestNewBuildsEverySubSolver(t *testing.T) {
	g := gen.CliqueChain(rand.New(rand.NewSource(3)), 5, 10, 2, 0.5)
	s, err := New(context.Background(), g, cost.FillIn{}, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !s.Decomposed() || len(s.subs) != s.Atoms().Count() {
		t.Fatalf("want one sub-solver per atom, got %d for %d atoms", len(s.subs), s.Atoms().Count())
	}
	for i, sub := range s.subs {
		if sub == nil {
			t.Fatalf("atom %d: sub-solver not built by New", i)
		}
		if sub.InitDuration > s.InitDuration {
			t.Fatalf("atom %d: sub-solver init %v exceeds the parent's %v", i, sub.InitDuration, s.InitDuration)
		}
	}
}

// TestNewNegativeWidthBound pins that a negative width bound is an
// error, not a panic.
func TestNewNegativeWidthBound(t *testing.T) {
	neg := -1
	s, err := New(context.Background(), gen.Cycle(5), cost.Width{}, Options{WidthBound: &neg})
	if s != nil || err == nil {
		t.Fatalf("New with WidthBound -1 = (%v, %v), want (nil, error)", s, err)
	}
}

func TestEnumerateContextCancelStopsStream(t *testing.T) {
	g := gen.PaperExample()
	s := mustNew(g, cost.Width{})
	ctx, cancel := context.WithCancel(context.Background())
	e := s.EnumerateContext(ctx)
	if _, ok := e.Next(); !ok {
		t.Fatal("first Next should succeed before cancellation")
	}
	cancel()
	if r, ok := e.Next(); ok {
		t.Fatalf("Next after cancel should report exhaustion, got %v", r)
	}
}

func TestEnumerateContextMatchesPlainEnumeration(t *testing.T) {
	g := gen.PaperExample()
	s := mustNew(g, cost.FillIn{})
	plain := s.EnumerateContext(context.Background())
	ctxed := s.EnumerateContext(context.Background())
	for {
		a, aok := plain.Next()
		b, bok := ctxed.Next()
		if aok != bok {
			t.Fatalf("stream length mismatch: plain ok=%v ctx ok=%v", aok, bok)
		}
		if !aok {
			break
		}
		if a.Cost != b.Cost {
			t.Fatalf("cost mismatch: %g vs %g", a.Cost, b.Cost)
		}
	}
}

// TestTopKWorkersDefault is the regression test for the silent-
// serial bug: a worker count of zero (or negative) must mean "use
// GOMAXPROCS", not "run sequentially", and the emitted prefix must be
// identical to the sequential run for every normalized count.
func TestTopKWorkersDefault(t *testing.T) {
	if got := effectiveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("effectiveWorkers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := effectiveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("effectiveWorkers(-3) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := effectiveWorkers(1); got != 1 {
		t.Fatalf("effectiveWorkers(1) = %d, want 1 (sequential stays opt-in)", got)
	}
	if got := effectiveWorkers(5); got != 5 {
		t.Fatalf("effectiveWorkers(5) = %d, want 5", got)
	}

	rng := rand.New(rand.NewSource(31))
	g := gen.GNP(rng, 9, 0.4)
	s := mustNew(g, cost.FillIn{})
	seq := s.TopK(context.Background(), 25, 1)
	def := s.TopK(context.Background(), 25, 0)
	if len(seq) != len(def) {
		t.Fatalf("workers=0 emitted %d results, sequential %d", len(def), len(seq))
	}
	for i := range seq {
		if seq[i].Cost != def[i].Cost || seq[i].H.EdgeSetKey() != def[i].H.EdgeSetKey() {
			t.Fatalf("rank %d: workers=0 deviates from the sequential enumeration", i)
		}
	}
}
