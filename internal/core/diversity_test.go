package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
)

// TestDiverseTopKWindowBeyondStream: a window far past the end of a
// finite enumeration truncates to what exists and still selects k.
func TestDiverseTopKWindowBeyondStream(t *testing.T) {
	g := gen.Cycle(6) // Catalan(4) = 14 minimal triangulations
	s := mustNew(g, cost.FillIn{})
	div := s.DiverseTopK(5, 100000)
	if len(div) != 5 {
		t.Fatalf("selected %d, want 5", len(div))
	}
	best, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if div[0].Cost != best.Cost {
		t.Fatalf("optimum does not lead: %v vs %v", div[0].Cost, best.Cost)
	}
	for i := range div {
		for j := i + 1; j < len(div); j++ {
			if FillDistance(g, div[i], div[j]) == 0 {
				t.Fatalf("duplicate pair (%d,%d) in diverse set", i, j)
			}
		}
	}
}

// TestDiverseTopKExceedsTotal: k past the total result count returns the
// whole enumeration in rank order — there is nothing to choose between.
func TestDiverseTopKExceedsTotal(t *testing.T) {
	g := gen.Cycle(5) // 5 minimal triangulations
	s := mustNew(g, cost.FillIn{})
	div := s.DiverseTopK(9, 50)
	ranked := s.TopK(context.Background(), 5, 0)
	if len(div) != 5 {
		t.Fatalf("selected %d, want all 5", len(div))
	}
	for i := range div {
		if div[i].Cost != ranked[i].Cost || FillDistance(g, div[i], ranked[i]) != 0 {
			t.Fatalf("rank %d: exhaustive selection must preserve rank order", i)
		}
	}
}

// TestDiverseTopKWidthBound: selection over a width-bounded solver only
// ever sees (and returns) in-bound triangulations, and a window past the
// bounded stream's end truncates exactly like an unbounded finite stream.
func TestDiverseTopKWidthBound(t *testing.T) {
	g := gen.PaperExample()
	unbounded := mustNew(g, cost.Width{})
	all := unbounded.TopK(context.Background(), 1<<20, 0)
	minWidth := all[0].Tree.Width()
	inBound := 0
	for _, r := range all {
		if r.Tree.Width() <= minWidth {
			inBound++
		}
	}
	if inBound == len(all) {
		t.Skipf("paper example has no width-%d exclusions; bound test vacuous", minWidth)
	}

	b := minWidth
	bounded, err := New(context.Background(), g, cost.Width{}, Options{WidthBound: &b})
	if err != nil {
		t.Fatal(err)
	}
	div := bounded.DiverseTopK(inBound+3, 1000)
	if len(div) != inBound {
		t.Fatalf("bounded diverse set has %d results, want the %d in-bound ones", len(div), inBound)
	}
	for i, r := range div {
		if w := r.Tree.Width(); w > minWidth {
			t.Fatalf("result %d has width %d past the bound %d", i, w, minWidth)
		}
	}
}

// TestDiverseSelectOrbitMode: selection composes with orbit-reduced
// enumeration — the pool is the reduced stream, picks stay distinct
// representatives, and orbit sizes survive selection (so the portfolio
// still reports how much of the unreduced space each pick stands for).
func TestDiverseSelectOrbitMode(t *testing.T) {
	g := gen.Cycle(6)
	s := mustNew(g, cost.FillIn{})
	var counters OrbitCounters
	ob := NewOrbitBackend(s, &counters)
	e := ob.EnumerateContext(context.Background())
	var pool []*Result
	total := int64(0)
	for {
		r, ok := e.Next()
		if !ok {
			break
		}
		if r.OrbitSize < 1 {
			t.Fatalf("orbit-reduced result without orbit size: %+v", r)
		}
		total += r.OrbitSize
		pool = append(pool, r)
	}
	if total != 14 {
		t.Fatalf("orbit sizes sum to %d, want the 14 unreduced C6 triangulations", total)
	}
	if len(pool) >= 14 {
		t.Fatalf("stream not reduced: %d representatives", len(pool))
	}
	k := 2
	if len(pool) < k {
		k = len(pool)
	}
	idx := DiverseSelect(g, pool, k)
	if len(idx) != k || idx[0] != 0 {
		t.Fatalf("selection %v: want %d picks led by rank 0", idx, k)
	}
	for i := range idx {
		for j := i + 1; j < len(idx); j++ {
			if FillDistance(g, pool[idx[i]], pool[idx[j]]) == 0 {
				t.Fatalf("picks %d and %d coincide", idx[i], idx[j])
			}
		}
	}
	for _, j := range idx {
		if pool[j].OrbitSize < 1 {
			t.Fatalf("selection dropped the orbit size of rank %d", j)
		}
	}
}
