package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

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

// TestNewDeadlineLandsPromptly is the regression test for a late
// cancelled init: on ConnectedGNP(60, 0.10) the separator closure is
// still running at a 2 s deadline with about 300,000 separators found,
// and sorting that partial list once made New return 0.5 s late.
func TestNewDeadlineLandsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2 s solver initialization")
	}
	g := gen.ConnectedGNP(rand.New(rand.NewSource(1)), 60, 0.10)
	const budget = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	s, err := New(ctx, g, cost.Width{}, Options{})
	took := time.Since(start)
	if err == nil {
		t.Fatalf("init finished within %v (%d separators); the graph no longer exercises the deadline", took, len(s.MinimalSeparators()))
	}
	if late := took - budget; late > 100*time.Millisecond {
		t.Fatalf("New returned %v after its %v deadline (err %v)", late, budget, err)
	}
}
