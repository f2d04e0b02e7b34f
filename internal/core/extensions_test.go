package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12321))
	for trial := 0; trial < 20; trial++ {
		g := gen.GNP(rng, 3+rng.Intn(6), 0.4)
		c := cost.FillIn{}
		seq := withWorkers(mustNew(g, c).EnumerateContext(context.Background()), 1)
		par := withWorkers(mustNew(g, c).EnumerateContext(context.Background()), 4)
		for step := 0; ; step++ {
			rs, okS := seq.Next()
			rp, okP := par.Next()
			if okS != okP {
				t.Fatalf("trial %d step %d: exhaustion mismatch", trial, step)
			}
			if !okS {
				break
			}
			if rs.H.EdgeSetKey() != rp.H.EdgeSetKey() {
				t.Fatalf("trial %d step %d: parallel emitted a different triangulation", trial, step)
			}
			if rs.Cost != rp.Cost {
				t.Fatalf("trial %d step %d: cost mismatch %v vs %v", trial, step, rs.Cost, rp.Cost)
			}
		}
	}
}

// withWorkers sets the batch size of every Lawler–Murty machine behind
// e — the monolithic machine, each atom's, or the one inside an orbit
// filter — and returns e. EnumerateContext builds them at GOMAXPROCS;
// tests pin a count to compare batch sizes or to make solve counts
// independent of the host. No machine solves a branch before its second
// Next, so a fresh enumerator takes the count from the start. n must be
// positive: a machine with no workers pops nothing and its Next spins.
func withWorkers(e *Enumerator, n int) *Enumerator {
	if n < 1 {
		panic(fmt.Sprintf("withWorkers(%d): want at least one worker", n))
	}
	for _, lm := range lmMachines(e) {
		lm.workers = n
	}
	return e
}

// lmMachines returns every Lawler–Murty machine behind e.
func lmMachines(e *Enumerator) []*lmEnumerator {
	switch m := e.m.(type) {
	case *lmEnumerator:
		return []*lmEnumerator{m}
	case *productEnumerator:
		var out []*lmEnumerator
		for _, st := range m.streams {
			out = append(out, lmMachines(st.e)...)
		}
		return out
	case *orbitFilter:
		return lmMachines(m.inner)
	}
	return nil
}

// TestEnumerateWorkersFollowGOMAXPROCS pins where the batch size comes
// from: every Lawler–Murty machine behind EnumerateContext — monolithic,
// one per atom, or inside an orbit filter — solves up to GOMAXPROCS
// branches at a time, and the stream is complete.
func TestEnumerateWorkersFollowGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name              string
		b                 Backend
		machines, results int
	}{
		{"C5", mustNew(gen.Cycle(5), cost.Width{}), 1, 5},
		{"paper example (two atoms)", mustNew(gen.PaperExample(), cost.Width{}), 2, 2},
		{"orbit C6", NewOrbitBackend(mustNew(gen.Cycle(6), cost.FillIn{}), nil), 1, 3},
	} {
		e := tc.b.EnumerateContext(context.Background())
		machines := lmMachines(e)
		if len(machines) != tc.machines {
			t.Fatalf("%s: %d Lawler–Murty machines, want %d", tc.name, len(machines), tc.machines)
		}
		for _, lm := range machines {
			if lm.workers != procs {
				t.Fatalf("%s: a machine solves %d branches at a time, want GOMAXPROCS = %d", tc.name, lm.workers, procs)
			}
		}
		n := 0
		for _, ok := e.Next(); ok; _, ok = e.Next() {
			n++
		}
		if n != tc.results {
			t.Fatalf("%s: emitted %d results, want %d", tc.name, n, tc.results)
		}
	}
}

func TestFillDistance(t *testing.T) {
	g := gen.PaperExample()
	s := mustNew(g, cost.FillIn{})
	results := s.TopK(context.Background(), 2)
	if len(results) != 2 {
		t.Fatalf("need both paper triangulations")
	}
	if d := FillDistance(g, results[0], results[0]); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	// H2 fills {u,v}; H1 fills the three w-pairs: symmetric diff 4.
	if d := FillDistance(g, results[0], results[1]); d != 4 {
		t.Fatalf("H1–H2 distance = %d, want 4", d)
	}
	if FillDistance(g, results[0], results[1]) != FillDistance(g, results[1], results[0]) {
		t.Fatalf("distance not symmetric")
	}
}

func TestDiverseTopK(t *testing.T) {
	g := gen.Cycle(7)
	s := mustNew(g, cost.FillIn{})
	div := s.DiverseTopK(4, 0)
	if len(div) != 4 {
		t.Fatalf("selected %d", len(div))
	}
	// The optimum always leads.
	best, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if div[0].Cost != best.Cost {
		t.Fatalf("diverse set does not start at the optimum")
	}
	// All distinct (pairwise distance > 0).
	for i := range div {
		for j := i + 1; j < len(div); j++ {
			if FillDistance(g, div[i], div[j]) == 0 {
				t.Fatalf("duplicate in diverse set")
			}
		}
	}
	// Greedy max-min beats taking the ranked prefix: compare the minimum
	// pairwise distance of the two sets.
	prefix := s.TopK(context.Background(), 4)
	if minPairDist(g, div) < minPairDist(g, prefix) {
		t.Fatalf("diverse selection worse than ranked prefix: %d < %d",
			minPairDist(g, div), minPairDist(g, prefix))
	}
	// A window below k reads 4k ranks, as window 0 does: five picks from
	// a window of 3 are the picks from 20.
	short, wide := s.DiverseTopK(5, 3), s.DiverseTopK(5, 20)
	if len(short) != 5 {
		t.Fatalf("window 3 < k = 5 selected %d, want 5 from 4k = 20 ranks", len(short))
	}
	for i := range short {
		if short[i].H.EdgeSetKey() != wide[i].H.EdgeSetKey() {
			t.Fatalf("window 3 < k = 5: pick %d differs from window 4k = 20", i)
		}
	}
	// Degenerate inputs.
	if got := s.DiverseTopK(0, 10); got != nil {
		t.Fatalf("k=0 returned results")
	}
	if got := s.DiverseTopK(1000, 2000); len(got) != 42 {
		// C7 has Catalan(5) = 42 minimal triangulations.
		t.Fatalf("exhaustive diverse selection = %d, want 42", len(got))
	}
}

func minPairDist(g *graph.Graph, rs []*Result) int {
	min := int(^uint(0) >> 1)
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if d := FillDistance(g, rs[i], rs[j]); d < min {
				min = d
			}
		}
	}
	return min
}
