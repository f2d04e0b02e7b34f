package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// referenceFillDistance is FillDistance as it was first written, over
// two maps of fill edges: the reference the fill-row version must match.
func referenceFillDistance(g *graph.Graph, a, b *Result) int {
	fills := func(h *graph.Graph) map[[2]int]bool {
		out := map[[2]int]bool{}
		for _, e := range h.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				out[e] = true
			}
		}
		return out
	}
	fa, fb := fills(a.H), fills(b.H)
	d := 0
	for e := range fa {
		if !fb[e] {
			d++
		}
	}
	for e := range fb {
		if !fa[e] {
			d++
		}
	}
	return d
}

// referenceDiverseSelect is DiverseSelect as it was first written: every
// round recomputes every candidate's distance to every pick. The running-
// minimum version must return the identical picks, tie-breaks included.
func referenceDiverseSelect(g *graph.Graph, pool []*Result, k int) []int {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	if len(pool) <= k {
		out := make([]int, len(pool))
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := []int{0}
	used := map[int]bool{0: true}
	for len(chosen) < k {
		bestIdx, bestDist := -1, -1
		for i, cand := range pool {
			if used[i] {
				continue
			}
			minDist := int(^uint(0) >> 1)
			for _, c := range chosen {
				if d := referenceFillDistance(g, cand, pool[c]); d < minDist {
					minDist = d
				}
			}
			if minDist > bestDist {
				bestIdx, bestDist = i, minDist
			}
		}
		if bestIdx == -1 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
	}
	return chosen
}

// TestDiverseSelectMatchesReference checks the fill-row selection against
// the reference on random pools: random graphs under fill and width,
// shuffled so index 0 is not always the optimum, windows that run past
// the end of the stream, and every k from 1 past the pool size. The
// cycles are there for ties: their triangulations sit at many equal
// distances, so the lowest-index tie-break decides most picks.
func TestDiverseSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{gen.Cycle(6), gen.Cycle(7), gen.PaperExample()}
	for len(graphs) < 60 {
		graphs = append(graphs, gen.ConnectedGNP(rng, 6+rng.Intn(4), 0.3+0.2*rng.Float64()))
	}
	costs := []cost.Cost{cost.FillIn{}, cost.Width{}}
	for gi, g := range graphs {
		s := mustNew(g, costs[gi%len(costs)])
		window := 4 + rng.Intn(40) // often past the stream's end
		pool := s.TopK(context.Background(), window)
		if len(pool) > 24 {
			pool = pool[:24]
		}
		if gi%3 == 1 {
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		}
		for i := range pool {
			for j := range pool {
				if got, want := FillDistance(g, pool[i], pool[j]), referenceFillDistance(g, pool[i], pool[j]); got != want {
					t.Fatalf("graph %d: FillDistance(%d, %d) = %d, reference %d", gi, i, j, got, want)
				}
			}
		}
		for k := 0; k <= len(pool)+1; k++ {
			got, want := DiverseSelect(g, pool, k), referenceDiverseSelect(g, pool, k)
			if len(got) != len(want) {
				t.Fatalf("graph %d, k=%d over %d: picks %v, reference %v", gi, k, len(pool), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("graph %d, k=%d over %d: picks %v, reference %v", gi, k, len(pool), got, want)
				}
			}
		}
	}
}

// TestDiverseSelectLargePool bounds the selection at the serving tier's
// largest window: k = 1024 picks from 4096 results of C12. Recomputing
// every candidate's distance to every pick each round would take
// O(window · k²) distances — about 1.8·10⁹ here.
func TestDiverseSelectLargePool(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes 4096 results")
	}
	g := gen.Cycle(12) // Catalan(10) = 16796 minimal triangulations
	pool := mustNew(g, cost.FillIn{}).TopK(context.Background(), 4096)
	if len(pool) != 4096 {
		t.Fatalf("pool has %d results, want 4096", len(pool))
	}
	start := time.Now()
	idx := DiverseSelect(g, pool, 1024)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("selecting 1024 of 4096 took %v, want under 5s", took)
	}
	if len(idx) != 1024 || idx[0] != 0 {
		t.Fatalf("selection of %d picks led by %d, want 1024 led by rank 0", len(idx), idx[0])
	}
}

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
	ranked := s.TopK(context.Background(), 5)
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
	all := unbounded.TopK(context.Background(), 1<<20)
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
