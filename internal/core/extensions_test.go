package core

import (
	"context"
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
		seq := mustNew(g, c).EnumerateContext(context.Background())
		par := mustNew(g, c).EnumerateParallelContext(context.Background(), 4)
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

// workersOf reports the branch-solver worker count of every Lawler–Murty
// machine behind e: the single machine of a monolithic enumeration, or
// each atom's on a decomposed one.
func workersOf(e *Enumerator) []int {
	switch m := e.m.(type) {
	case *lmEnumerator:
		return []int{m.workers}
	case *productEnumerator:
		var out []int
		for _, st := range m.streams {
			out = append(out, workersOf(st.e)...)
		}
		return out
	}
	return nil
}

// TestParallelWorkerClamping pins the one worker-count rule on both
// enumerator machines: EnumerateParallelContext takes positive counts
// as-is and maps zero or negative to GOMAXPROCS, exactly like TopK and
// the service's StreamStore.Tune, while EnumerateContext stays sequential.
// The stream is complete for every count.
func TestParallelWorkerClamping(t *testing.T) {
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name       string
		s          *Solver
		decomposed bool
		results    int
	}{
		{"C5", mustNew(gen.Cycle(5), cost.Width{}), false, 5},
		{"paper example", mustNew(gen.PaperExample(), cost.Width{}), true, 2},
	} {
		if tc.s.Decomposed() != tc.decomposed {
			t.Fatalf("%s: Decomposed() = %v, want %v", tc.name, tc.s.Decomposed(), tc.decomposed)
		}
		for _, w := range []struct {
			req, want int
			e         *Enumerator
		}{
			{0, procs, tc.s.EnumerateParallelContext(ctx, 0)},
			{-2, procs, tc.s.EnumerateParallelContext(ctx, -2)},
			{1, 1, tc.s.EnumerateParallelContext(ctx, 1)},
			{3, 3, tc.s.EnumerateParallelContext(ctx, 3)},
			{1, 1, tc.s.EnumerateContext(ctx)},
		} {
			got := workersOf(w.e)
			if len(got) == 0 {
				t.Fatalf("%s: enumerator has no Lawler–Murty machine", tc.name)
			}
			for _, n := range got {
				if n != w.want {
					t.Fatalf("%s: workers %d ran %v, want %d", tc.name, w.req, got, w.want)
				}
			}
			n := 0
			for _, ok := w.e.Next(); ok; _, ok = w.e.Next() {
				n++
			}
			if n != tc.results {
				t.Fatalf("%s: workers %d emitted %d results, want %d", tc.name, w.req, n, tc.results)
			}
		}
	}
}

func TestFillDistance(t *testing.T) {
	g := gen.PaperExample()
	s := mustNew(g, cost.FillIn{})
	results := s.TopK(context.Background(), 2, 0)
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
	prefix := s.TopK(context.Background(), 4, 0)
	if minPairDist(g, div) < minPairDist(g, prefix) {
		t.Fatalf("diverse selection worse than ranked prefix: %d < %d",
			minPairDist(g, div), minPairDist(g, prefix))
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
