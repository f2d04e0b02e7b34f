package heur

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chordal"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/triang"
)

func TestOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := gen.GNP(rng, 1+rng.Intn(20), 0.3)
		for _, s := range []Strategy{MinDegree, MinFill} {
			order := Order(g, s)
			if len(order) != g.NumVertices() {
				t.Fatalf("%v: order length %d", s, len(order))
			}
			seen := map[int]bool{}
			for _, v := range order {
				if seen[v] {
					t.Fatalf("%v: duplicate %d", s, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestHeuristicWidthNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		g := gen.ConnectedGNP(rng, 4+rng.Intn(6), 0.4)
		solver, err := core.New(context.Background(), g, cost.Width{}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := solver.MinTriang(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{MinDegree, MinFill} {
			w := Width(g, Order(g, s))
			if float64(w) < exact.Cost {
				t.Fatalf("%v width %d beats exact optimum %v", s, w, exact.Cost)
			}
		}
	}
}

func TestMinimalizeHeuristicOrder(t *testing.T) {
	// LB-Triang under a heuristic order yields a triangulation — the
	// standard two-step pipeline (heuristic order, then minimalization).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := gen.ConnectedGNP(rng, 5+rng.Intn(10), 0.3)
		minimal := triang.LBTriang(g, Order(g, MinFill))
		if !chordal.IsTriangulationOf(minimal, g) {
			t.Fatalf("minimalization broke triangulation")
		}
	}
}

func TestWidthOnKnownGraphs(t *testing.T) {
	// Grid 3xN has treewidth 3; min-fill finds it on small grids.
	g := gen.Grid(3, 4)
	if w := Width(g, Order(g, MinFill)); w != 3 {
		t.Fatalf("min-fill width on 3x4 grid = %d, want 3", w)
	}
	// Cycle: both heuristics achieve width 2.
	c := gen.Cycle(8)
	for _, s := range []Strategy{MinDegree, MinFill} {
		if w := Width(c, Order(c, s)); w != 2 {
			t.Fatalf("%v width on C8 = %d, want 2", s, w)
		}
	}
	if MinDegree.String() == MinFill.String() {
		t.Fatalf("strategy names collide")
	}
}
