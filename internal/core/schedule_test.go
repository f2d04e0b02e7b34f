package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// edgeGlued returns C6 and C7 sharing the edge {0, 1}: two atoms and one
// non-empty clique minimal separator.
func edgeGlued() *graph.Graph {
	g := graph.New(11)
	for _, cycle := range [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 8, 9, 10}} {
		for i, v := range cycle {
			if w := cycle[(i+1)%len(cycle)]; !g.HasEdge(v, w) {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// TestEmitBeforeSplit pins when the Lawler–Murty machines split and
// solve, on a monolithic and on a decomposed solver. The first Next
// emits without a constrained solve or a skipped branch. The second runs
// the first result's split, which queues its branches unsolved; at one
// worker it then solves only the partitions it pops off the top, so on
// the prism over C5 one of the five branches is solved and four wait
// under the first result's cost. A full drain runs the same solves as
// when each split solved all of its branches.
func TestEmitBeforeSplit(t *testing.T) {
	cases := []struct {
		name       string
		s          *Solver
		decomposed bool
		second     uint64 // constrained solves after the second Next
		results    int
		drain      ReuseStats
	}{
		{"prism5 fill", mustNew(prism(5), cost.FillIn{}), false, 1, 270,
			ReuseStats{ConstrainedSolves: 326, DirtyBlocks: 17490, ReusedBlocks: 5656, EmptySolves: 57, EmptyBranches: 303}},
		{"C6·C7 fill", mustNew(edgeGlued(), cost.FillIn{}), true, 2, 588,
			ReuseStats{ConstrainedSolves: 54, DirtyBlocks: 848, ReusedBlocks: 588, EmptySolves: 0, EmptyBranches: 83}},
	}
	for _, tc := range cases {
		if tc.s.Decomposed() != tc.decomposed {
			t.Fatalf("%s: decomposed = %v, want %v", tc.name, tc.s.Decomposed(), tc.decomposed)
		}
		e := withWorkers(tc.s.EnumerateContext(context.Background()), 1)
		first, ok := e.Next()
		if !ok {
			t.Fatalf("%s: no first result", tc.name)
		}
		if st := tc.s.ReuseStats(); st != (ReuseStats{}) {
			t.Fatalf("%s: the first Next split: %+v", tc.name, st)
		}
		if _, ok := e.Next(); !ok {
			t.Fatalf("%s: no second result", tc.name)
		}
		if st := tc.s.ReuseStats(); st.ConstrainedSolves != tc.second {
			t.Fatalf("%s: the second Next ran %d solves, want %d", tc.name, st.ConstrainedSolves, tc.second)
		}
		if lm, ok := e.m.(*lmEnumerator); ok {
			// Every branch of the first split the filter kept is either
			// solved or still waiting, unsolved, under the first cost.
			st := tc.s.ReuseStats()
			waiting := uint64(0)
			for _, p := range lm.queue {
				if p.res == nil {
					if p.cost != first.Cost {
						t.Fatalf("%s: an unsolved branch waits under cost %v, want the parent's %v", tc.name, p.cost, first.Cost)
					}
					waiting++
				}
			}
			if branches := uint64(len(first.Seps)); st.ConstrainedSolves+st.EmptyBranches+waiting != branches {
				t.Fatalf("%s: %d solved, %d skipped and %d waiting, want %d branches in all",
					tc.name, st.ConstrainedSolves, st.EmptyBranches, waiting, branches)
			}
		}
		n := 2
		for {
			if _, ok := e.Next(); !ok {
				break
			}
			n++
		}
		if st := tc.s.ReuseStats(); n != tc.results || st != tc.drain {
			t.Errorf("%s: drain of %d results ran %+v, want %d results and %+v", tc.name, n, st, tc.results, tc.drain)
		}
	}
}

// eagerSolves are the cumulative constrained solves after each of the
// first 30 Next calls, and after a full drain, when every split solved
// all of its branches before queueing them (measured on that schedule).
var eagerSolves = []struct {
	name  string
	s     func() *Solver
	first []uint64
	drain uint64
}{
	{"prism5 fill", func() *Solver { return mustNew(prism(5), cost.FillIn{}) },
		[]uint64{0, 5, 10, 14, 16, 17, 22, 26, 29, 30, 32, 33, 34, 34, 38, 39, 41, 42, 43, 43, 44, 44, 44, 45, 45, 46, 46, 46, 46, 46}, 326},
	{"C6·C7 fill", func() *Solver { return mustNew(edgeGlued(), cost.FillIn{}) },
		[]uint64{0, 7, 9, 12, 13, 13, 15, 15, 15, 15, 16, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 21, 22, 22, 22, 22, 22, 22, 23, 24}, 54},
	{"grid3x3 width", func() *Solver { return mustNew(gen.Grid(3, 3), cost.Width{}) },
		[]uint64{0, 5, 10, 13, 16, 18, 18, 22, 25, 28, 30, 30, 33, 35, 36, 39, 41, 41, 41, 41, 46, 49, 52, 53, 56, 58, 59, 60, 60, 60}, 150},
	{"gnp12 lex", func() *Solver { return mustNew(delayBenchGraph(12, 0.3, 7), cost.LexWidthFill{}) },
		[]uint64{0, 4, 4, 7, 8, 9, 10, 10, 13, 14, 14, 15, 16}, 18},
}

// TestSolveOnPopWorkers checks that solving branches when they reach
// the top of the queue never runs more constrained solves than the eager
// split did by the same Next, at one worker and with batches of four,
// that a full drain runs exactly as many, and that both worker counts
// emit one stream.
func TestSolveOnPopWorkers(t *testing.T) {
	for _, tc := range eagerSolves {
		var want []string
		for _, workers := range []int{1, 4} {
			s := tc.s()
			e := withWorkers(s.EnumerateContext(context.Background()), workers)
			var got []string
			for {
				r, ok := e.Next()
				if !ok {
					break
				}
				got = append(got, resultKey(r))
				if i, solves := len(got)-1, s.ReuseStats().ConstrainedSolves; i < len(tc.first) && solves > tc.first[i] {
					t.Fatalf("%s workers %d: %d solves after Next %d, the eager split ran %d",
						tc.name, workers, solves, i+1, tc.first[i])
				}
			}
			if solves := s.ReuseStats().ConstrainedSolves; solves != tc.drain {
				t.Errorf("%s workers %d: a full drain ran %d solves, want %d", tc.name, workers, solves, tc.drain)
			}
			if want == nil {
				want = got
			} else if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: the stream at %d workers differs from the sequential one", tc.name, workers)
			}
		}
	}
}

// TestColdPageSolvesPinned pins the constrained solves of a 20-result
// read of every (graph, cost) pair of the cold-init corpus under width
// and fill at one worker: 441, against 1,033 when each split solved all
// of its branches.
func TestColdPageSolvesPinned(t *testing.T) {
	const want = 441
	var solves uint64
	for _, g := range gen.ColdInitCorpus() {
		for _, c := range []cost.Cost{cost.Width{}, cost.FillIn{}} {
			s := mustNew(g, c)
			e := withWorkers(s.EnumerateContext(context.Background()), 1)
			for i := 0; i < 20; i++ {
				if _, ok := e.Next(); !ok {
					break
				}
			}
			solves += s.ReuseStats().ConstrainedSolves
		}
	}
	if solves != want {
		t.Fatalf("20-result reads of the cold-init corpus ran %d solves, want %d", solves, want)
	}
}
