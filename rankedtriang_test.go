package rankedtriang

import (
	"context"
	"testing"

	"repro/internal/cost"
)

// mustSolver builds an unbounded solver through the facade over a
// background context, which cannot fail.
func mustSolver(g *Graph, c Cost) *Solver {
	s, err := NewSolver(context.Background(), g, c, SolverOptions{})
	if err != nil {
		panic(err)
	}
	return s
}

func c4() *Graph {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	return g
}

func TestQuickstartFlow(t *testing.T) {
	solver := mustSolver(c4(), Width())
	enum := solver.EnumerateContext(context.Background())
	count := 0
	for {
		r, ok := enum.Next()
		if !ok {
			break
		}
		count++
		if r.Cost != 2 {
			t.Fatalf("C4 width = %v, want 2", r.Cost)
		}
		if err := r.Tree.Validate(r.H); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
	}
	if count != 2 {
		t.Fatalf("C4 has %d minimal triangulations, want 2", count)
	}
}

func TestBoundedSolverFacade(t *testing.T) {
	ctx := context.Background()
	bound := 2
	s, err := NewSolver(ctx, c4(), Width(), SolverOptions{WidthBound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tree.Width() != 2 {
		t.Fatalf("width = %d", r.Tree.Width())
	}
	// Width bound 1 is infeasible for C4.
	bound = 1
	if s, err = NewSolver(ctx, c4(), Width(), SolverOptions{WidthBound: &bound}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MinTriang(nil); err != ErrNoTriangulation {
		t.Fatalf("want ErrNoTriangulation, got %v", err)
	}
}

func TestConstraintsFacade(t *testing.T) {
	g := c4()
	s := mustSolver(g, FillIn())
	diag := NewVertexSet(4, 0, 2)
	r, err := s.MinTriang((&Constraints{}).WithInclude(diag))
	if err != nil {
		t.Fatal(err)
	}
	if !r.H.HasEdge(0, 2) {
		t.Fatalf("inclusion constraint ignored")
	}
	r, err = s.MinTriang((&Constraints{}).WithExclude(diag))
	if err != nil {
		t.Fatal(err)
	}
	if r.H.HasEdge(0, 2) {
		t.Fatalf("exclusion constraint ignored")
	}
}

func TestCostConstructors(t *testing.T) {
	g := c4()
	for _, c := range []Cost{Width(), FillIn(), WidthThenFill(), StateSpace(nil),
		cost.WeightedWidth{CostName: "bw", BagWeight: func(_ *Graph, b VertexSet) float64 { return float64(b.Len()) }},
	} {
		if _, err := mustSolver(g, c).MinTriang(nil); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestHypergraphFacade(t *testing.T) {
	h := NewHypergraph(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	g := h.Primal()
	r, err := mustSolver(g, h.HypertreeWidthCost()).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 2 {
		t.Fatalf("hypertree width = %v", r.Cost)
	}
}

func TestProperTDFacade(t *testing.T) {
	s := mustSolver(c4(), Width())
	e := s.EnumerateProperTDs()
	count := 0
	for {
		d, r, ok := e.Next()
		if !ok {
			break
		}
		if d.Width() != 2 || r == nil {
			t.Fatalf("bad proper TD")
		}
		count++
	}
	// Each of C4's two triangulations has 2 maximal cliques sharing the
	// diagonal, hence a unique clique tree: 2 proper TDs.
	if count != 2 {
		t.Fatalf("proper TDs = %d, want 2", count)
	}
}
