package triang

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestLBTriangChordalIsIdentity(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Path(6), gen.Complete(5), gen.KTree(rand.New(rand.NewSource(1)), 10, 2, 0)} {
		h := LBTriang(g, nil)
		if h.EdgeSetKey() != g.EdgeSetKey() {
			t.Errorf("LB-Triang added fill to a chordal graph")
		}
	}
}

func TestLBTriangCycle(t *testing.T) {
	// A minimal triangulation of C6 adds exactly 3 chords.
	h := LBTriang(gen.Cycle(6), nil)
	if !chordal.IsChordal(h) {
		t.Fatalf("LB-Triang output not chordal")
	}
	if fill := len(chordal.FillEdges(gen.Cycle(6), h)); fill != 3 {
		t.Fatalf("C6 fill = %d, want 3", fill)
	}
}

func TestLBTriangMinimalAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(5)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.5)
		order := rng.Perm(g.Universe())
		var active []int
		for _, v := range order {
			if g.Vertices().Contains(v) {
				active = append(active, v)
			}
		}
		h := LBTriang(g, active)
		if !chordal.IsTriangulationOf(h, g) {
			t.Fatalf("LB-Triang output not a triangulation")
		}
		if !bruteforce.IsMinimalTriangulation(h, g) {
			t.Fatalf("LB-Triang output not minimal (n=%d, edges=%v)", n, g.Edges())
		}
	}
}

func TestMCSMMinimalAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(5)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.5)
		h, _ := MCSMOrder(g)
		if !chordal.IsTriangulationOf(h, g) {
			t.Fatalf("MCS-M output not a triangulation (n=%d, edges=%v)", n, g.Edges())
		}
		if !bruteforce.IsMinimalTriangulation(h, g) {
			t.Fatalf("MCS-M output not minimal (n=%d, edges=%v)", n, g.Edges())
		}
	}
}

func TestMCSMChordalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := gen.KTree(rng, 4+rng.Intn(10), 1+rng.Intn(3), 0)
		h, _ := MCSMOrder(g)
		if h.EdgeSetKey() != g.EdgeSetKey() {
			t.Fatalf("MCS-M added fill to a chordal graph")
		}
	}
}

func TestTriangulatorsOnLargerGraphs(t *testing.T) {
	// No oracle here; verify chordality and (structural) minimality via
	// the fill-removability criterion: in a minimal triangulation, no
	// single fill edge can be dropped while remaining chordal.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		g := gen.ConnectedGNP(rng, 12+rng.Intn(10), 0.25)
		mcsm, _ := MCSMOrder(g)
		for name, h := range map[string]*graph.Graph{"lb": LBTriang(g, nil), "mcsm": mcsm} {
			if !chordal.IsTriangulationOf(h, g) {
				t.Fatalf("%s: not a triangulation", name)
			}
			for _, e := range chordal.FillEdges(g, h) {
				h2 := h.Clone()
				h2.RemoveEdge(e[0], e[1])
				if chordal.IsChordal(h2) {
					t.Fatalf("%s: fill edge %v removable — not minimal", name, e)
				}
			}
		}
	}
}

func TestMinimalDeterministic(t *testing.T) {
	g := gen.PaperExample()
	if Minimal(g).EdgeSetKey() != Minimal(g).EdgeSetKey() {
		t.Fatalf("Minimal is not deterministic")
	}
}
