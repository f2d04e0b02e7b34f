package td

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/vset"
)

// paperGraph is the running example of Figure 1(a).
func paperGraph() *graph.Graph {
	g := graph.New(6)
	for _, w := range []int{3, 4, 5} {
		g.AddEdge(0, w)
		g.AddEdge(1, w)
	}
	g.AddEdge(1, 2)
	return g
}

// paperT2 builds tree decomposition T2 of Figure 1(c):
// {u,v,w1} - {u,v,w2} - {u,v,w3} as a path, with {v,v'} hanging off.
func paperT2() *Decomposition {
	d := New()
	a := d.AddNode(vset.Of(6, 0, 1, 3))
	b := d.AddNode(vset.Of(6, 0, 1, 4))
	c := d.AddNode(vset.Of(6, 0, 1, 5))
	e := d.AddNode(vset.Of(6, 1, 2))
	d.AddEdge(a, b)
	d.AddEdge(b, c)
	d.AddEdge(c, e)
	return d
}

func TestValidate(t *testing.T) {
	g := paperGraph()
	d := paperT2()
	if err := d.Validate(g); err != nil {
		t.Fatalf("T2 should be valid: %v", err)
	}
	if d.Width() != 2 {
		t.Fatalf("T2 width = %d", d.Width())
	}
	if d.NumNodes() != 4 {
		t.Fatalf("T2 nodes = %d", d.NumNodes())
	}
}

func TestValidateCatchesMissingVertex(t *testing.T) {
	g := paperGraph()
	d := New()
	d.AddNode(vset.Of(6, 0, 1, 3, 4, 5))
	// v'=2 missing.
	if err := d.Validate(g); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("expected vertex-cover error, got %v", err)
	}
}

func TestValidateCatchesMissingEdge(t *testing.T) {
	g := paperGraph()
	d := New()
	a := d.AddNode(vset.Of(6, 0, 3, 4, 5))
	b := d.AddNode(vset.Of(6, 1, 2))
	d.AddEdge(a, b)
	// edges v-w1 etc. uncovered.
	if err := d.Validate(g); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Fatalf("expected edge-cover error, got %v", err)
	}
}

func TestValidateCatchesJunctionViolation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	d := New()
	a := d.AddNode(vset.Of(3, 0, 1))
	b := d.AddNode(vset.Of(3, 0, 2)) // 0 reappears after being dropped
	c := d.AddNode(vset.Of(3, 1, 2))
	d.AddEdge(a, c)
	d.AddEdge(c, b)
	if err := d.Validate(g); err == nil || !strings.Contains(err.Error(), "junction") {
		t.Fatalf("expected junction error, got %v", err)
	}
}

func TestValidateCatchesNonTree(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	d := New()
	a := d.AddNode(vset.Of(2, 0, 1))
	b := d.AddNode(vset.Of(2, 0))
	c := d.AddNode(vset.Of(2, 1))
	d.AddEdge(a, b)
	d.AddEdge(b, c)
	d.AddEdge(c, a) // cycle
	if err := d.Validate(g); err == nil {
		t.Fatalf("cycle accepted")
	}
	// Disconnected forest.
	d2 := New()
	d2.AddNode(vset.Of(2, 0, 1))
	d2.AddNode(vset.Of(2, 0))
	if err := d2.Validate(g); err == nil {
		t.Fatalf("forest accepted")
	}
	// Empty decomposition of nonempty graph.
	if err := New().Validate(g); err == nil {
		t.Fatalf("empty decomposition accepted")
	}
	if err := New().Validate(graph.New(0)); err != nil {
		t.Fatalf("empty/empty should validate: %v", err)
	}
}

func TestFillInAndSaturation(t *testing.T) {
	g := paperGraph()
	d := paperT2()
	if got := d.FillIn(g); got != 1 {
		t.Fatalf("T2 fill = %d, want 1", got)
	}
	h := d.Saturation(g)
	if !h.HasEdge(0, 1) {
		t.Fatalf("saturation missing fill edge")
	}
	if h.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("saturation edges = %d", h.NumEdges())
	}
	if g.HasEdge(0, 1) {
		t.Fatalf("Saturation mutated g")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := paperT2()
	c := d.Clone()
	c.Bags[0].AddInPlace(2)
	c.AddNode(vset.Of(6, 2))
	if d.Bags[0].Contains(2) || d.NumNodes() != 4 {
		t.Fatalf("Clone shares storage")
	}
}

func TestCoveredVerticesAndString(t *testing.T) {
	d := paperT2()
	if !d.CoveredVertices(6).Equal(vset.Full(6)) {
		t.Fatalf("covered = %v", d.CoveredVertices(6))
	}
	if s := d.String(); !strings.Contains(s, "width 2") {
		t.Fatalf("String: %s", s)
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	d := New()
	a := d.AddNode(vset.New(1))
	d.AddEdge(a, a)
}
