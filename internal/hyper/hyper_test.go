package hyper

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/vset"
)

// mustSolver builds an unbounded solver over a background context, which
// cannot fail.
func mustSolver(g *graph.Graph, c cost.Cost) *core.Solver {
	s, err := core.New(context.Background(), g, c, core.Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// triangleQuery is the classic 3-cycle join R(a,b) ⋈ S(b,c) ⋈ T(c,a).
func triangleQuery() *Hypergraph {
	h := New(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	return h
}

func TestPrimal(t *testing.T) {
	h := triangleQuery()
	g := h.Primal()
	if g.NumEdges() != 3 {
		t.Fatalf("triangle primal edges = %d", g.NumEdges())
	}
	// A single 4-ary atom saturates its variables.
	h2 := New(4)
	h2.AddEdge(0, 1, 2, 3)
	if h2.Primal().NumEdges() != 6 {
		t.Fatalf("primal of one atom should be a clique")
	}
}

func TestCoverNumber(t *testing.T) {
	h := triangleQuery()
	full := vset.Of(3, 0, 1, 2)
	if got := h.CoverNumber(full); got != 2 {
		t.Fatalf("integral cover of triangle = %v, want 2", got)
	}
	if got := h.CoverNumber(vset.Of(3, 0, 1)); got != 1 {
		t.Fatalf("single-edge cover = %v", got)
	}
	if got := h.CoverNumber(vset.New(3)); got != 0 {
		t.Fatalf("empty cover = %v", got)
	}
	// Uncoverable vertex.
	h2 := New(3)
	h2.AddEdge(0, 1)
	if got := h2.CoverNumber(vset.Of(3, 2)); !math.IsInf(got, 1) {
		t.Fatalf("uncoverable = %v", got)
	}
}

func TestFractionalCoverNumber(t *testing.T) {
	h := triangleQuery()
	full := vset.Of(3, 0, 1, 2)
	if got := h.FractionalCoverNumber(full); math.Abs(got-1.5) > 1e-6 {
		t.Fatalf("fractional cover of triangle = %v, want 1.5 (AGM)", got)
	}
	if got := h.FractionalCoverNumber(vset.Of(3, 1)); math.Abs(got-1) > 1e-6 {
		t.Fatalf("singleton fractional cover = %v", got)
	}
	h2 := New(3)
	h2.AddEdge(0, 1)
	if got := h2.FractionalCoverNumber(vset.Of(3, 2)); !math.IsInf(got, 1) {
		t.Fatalf("uncoverable fractional = %v", got)
	}
}

func TestFractionalNeverExceedsIntegral(t *testing.T) {
	h := New(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 4, 5)
	h.AddEdge(5, 0)
	h.AddEdge(1, 4)
	for _, bag := range []vset.Set{
		vset.Of(6, 0, 1, 2, 3),
		vset.Of(6, 2, 3, 4),
		vset.Of(6, 0, 1, 2, 3, 4, 5),
	} {
		fr := h.FractionalCoverNumber(bag)
		in := h.CoverNumber(bag)
		if fr > in+1e-6 {
			t.Fatalf("fractional %v > integral %v for %v", fr, in, bag)
		}
	}
}

func TestHypertreeWidthCostOnTriangleQuery(t *testing.T) {
	// The triangle join's primal graph is a triangle: one bag {a,b,c}.
	// Hypertree width = 2, fractional hypertree width = 1.5.
	h := triangleQuery()
	g := h.Primal()

	s := mustSolver(g, h.HypertreeWidthCost())
	r, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 2 {
		t.Fatalf("hypertree width = %v, want 2", r.Cost)
	}

	s = mustSolver(g, h.FractionalHypertreeWidthCost())
	r, err = s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Cost-1.5) > 1e-6 {
		t.Fatalf("fractional hypertree width = %v, want 1.5", r.Cost)
	}
}

func TestHypertreeWidthAcyclicQuery(t *testing.T) {
	// Chain query R(a,b) ⋈ S(b,c) ⋈ T(c,d): acyclic, so (generalized)
	// hypertree width 1 — every bag covered by one atom.
	h := New(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	g := h.Primal()
	s := mustSolver(g, h.HypertreeWidthCost())
	r, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 1 {
		t.Fatalf("acyclic hypertree width = %v, want 1", r.Cost)
	}
}

func TestRankedByFractionalWidth(t *testing.T) {
	// Cycle query of length 4: primal is C4; the two minimal
	// triangulations have equal fractional width; ranked enumeration must
	// emit both with non-decreasing cost.
	h := New(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 0)
	g := h.Primal()
	s := mustSolver(g, h.FractionalHypertreeWidthCost())
	e := s.EnumerateContext(context.Background())
	var costs []float64
	for {
		r, ok := e.Next()
		if !ok {
			break
		}
		costs = append(costs, r.Cost)
	}
	if len(costs) != 2 {
		t.Fatalf("C4 query: %d triangulations, want 2", len(costs))
	}
	if costs[1] < costs[0] {
		t.Fatalf("ranked order violated: %v", costs)
	}
}

func TestAddEdgeSetAndString(t *testing.T) {
	h := New(5)
	h.AddEdgeSet(vset.Of(5, 0, 1, 2))
	if len(h.Edges()) != 1 || h.NumVertices() != 5 {
		t.Fatalf("AddEdgeSet broken")
	}
	if h.String() == "" {
		t.Fatalf("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("universe mismatch accepted")
		}
	}()
	h.AddEdgeSet(vset.Of(4, 0))
}
