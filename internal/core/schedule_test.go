package core

import (
	"context"
	"testing"

	"repro/internal/cost"
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

// TestEmitBeforeSplit pins when the Lawler–Murty machines split, on a
// monolithic and on a decomposed solver: the first Next emits without a
// constrained solve or a skipped branch, the second runs exactly the
// first result's split (one branch per separator of each atom's first
// triangulation; a decomposed result also lists the clique separators,
// which no atom branches on), and a full drain runs the same solves as
// when each split ran before its emit.
func TestEmitBeforeSplit(t *testing.T) {
	cases := []struct {
		name       string
		s          *Solver
		decomposed bool
		results    int
		drain      ReuseStats
	}{
		{"prism5 fill", mustNew(prism(5), cost.FillIn{}), false, 270,
			ReuseStats{ConstrainedSolves: 326, DirtyBlocks: 17490, ReusedBlocks: 5656, EmptySolves: 57, EmptyBranches: 303}},
		{"C6·C7 fill", mustNew(edgeGlued(), cost.FillIn{}), true, 588,
			ReuseStats{ConstrainedSolves: 54, DirtyBlocks: 848, ReusedBlocks: 588, EmptySolves: 0, EmptyBranches: 83}},
	}
	for _, tc := range cases {
		if tc.s.Decomposed() != tc.decomposed {
			t.Fatalf("%s: decomposed = %v, want %v", tc.name, tc.s.Decomposed(), tc.decomposed)
		}
		e := tc.s.EnumerateContext(context.Background())
		first, ok := e.Next()
		if !ok {
			t.Fatalf("%s: no first result", tc.name)
		}
		if st := tc.s.ReuseStats(); st != (ReuseStats{}) {
			t.Fatalf("%s: the first Next split: %+v", tc.name, st)
		}
		branches := len(first.Seps)
		if tc.decomposed {
			for _, cs := range tc.s.dec.CliqueSeps {
				if !cs.IsEmpty() {
					branches--
				}
			}
		}
		if _, ok := e.Next(); !ok {
			t.Fatalf("%s: no second result", tc.name)
		}
		if st := tc.s.ReuseStats(); st.ConstrainedSolves+st.EmptyBranches != uint64(branches) {
			t.Fatalf("%s: the second Next ran %d solves and skipped %d branches, want %d branches in all",
				tc.name, st.ConstrainedSolves, st.EmptyBranches, branches)
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
