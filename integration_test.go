package rankedtriang

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chordal"
	"repro/internal/csp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/triang"
)

// TestEndToEndFileFlow exercises the full downstream-user path: write a
// graph to disk in PACE format, read it back, run the ranked enumeration
// through the facade, and validate every artifact.
func TestEndToEndFileFlow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "instance.gr")

	orig := gen.Grid(3, 3)
	var buf bytes.Buffer
	if err := graph.WritePACE(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadPACE(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 9 || g.NumEdges() != 12 {
		t.Fatalf("read back %v", g)
	}

	solver := mustSolver(g, WidthThenFill())
	enum := solver.EnumerateContext(context.Background())
	count := 0
	prev := -1.0
	for {
		r, ok := enum.Next()
		if !ok {
			break
		}
		count++
		if r.Cost < prev {
			t.Fatalf("order violated")
		}
		prev = r.Cost
		if !chordal.IsTriangulationOf(r.H, g) {
			t.Fatalf("result %d invalid", count)
		}
		if err := r.Tree.Validate(g); err != nil {
			t.Fatalf("result %d tree: %v", count, err)
		}
		if count > 10000 {
			t.Fatalf("runaway enumeration")
		}
	}
	if count == 0 {
		t.Fatalf("no results")
	}
	// The 3x3 grid has treewidth 3: first result must have width 3.
	first, _ := mustSolver(g, Width()).MinTriang(nil)
	if first.Tree.Width() != 3 {
		t.Fatalf("3x3 grid treewidth = %d, want 3", first.Tree.Width())
	}
}

func TestHeuristicFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := gen.ConnectedGNP(rng, 6+rng.Intn(8), 0.35)
		hw := HeuristicWidth(g)
		exact, err := mustSolver(g, Width()).MinTriang(nil)
		if err != nil {
			t.Fatal(err)
		}
		if float64(hw) < exact.Cost {
			t.Fatalf("heuristic width %d beats exact %v", hw, exact.Cost)
		}
		h := triang.LBTriang(g, heur.Order(g, heur.MinFill))
		if !chordal.IsTriangulationOf(h, g) {
			t.Fatalf("heuristic triangulation invalid")
		}
	}
}

func TestDiverseTopKFacade(t *testing.T) {
	g := gen.Cycle(6)
	s := mustSolver(g, FillIn())
	div := s.DiverseTopK(3, 10)
	if len(div) != 3 {
		t.Fatalf("diverse = %d", len(div))
	}
}

func TestInferenceFacade(t *testing.T) {
	// Chain A-B with a single pairwise factor; check Z and a marginal.
	m := NewFactorModel([]int{2, 2})
	if _, err := m.AddFactor([]int{0, 1}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(2)
	g.AddEdge(0, 1)
	r, err := mustSolver(g, StateSpace([]int{2, 2})).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildJunctionTree(m, r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Z() != 10 {
		t.Fatalf("Z = %v, want 10", tree.Z())
	}
	marg, err := tree.Marginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if marg[0] != 0.3 || marg[1] != 0.7 {
		t.Fatalf("marginal = %v", marg)
	}
}

func TestCSPFacade(t *testing.T) {
	p := csp.NewProblem([]int{2, 2, 2})
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		p.AllowFunc(e[0], e[1], func(a, b int) bool { return a != b })
	}
	r, err := mustSolver(p.ConstraintGraph(), Width()).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	count, err := p.Count(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("2-colorings of P3 = %d, want 2", count)
	}
	assign, ok, err := p.Solve(r.Tree)
	if err != nil || !ok {
		t.Fatalf("solve: %v %v", ok, err)
	}
	if assign[0] == assign[1] || assign[1] == assign[2] {
		t.Fatalf("invalid solution %v", assign)
	}
}

// TestParallelFacade drains C6 under fill through the facade's one
// entry point, which solves Lawler–Murty branches over GOMAXPROCS
// goroutines: all 14 minimal triangulations come out.
func TestParallelFacade(t *testing.T) {
	g := gen.Cycle(6)
	s := mustSolver(g, FillIn())
	e := s.EnumerateContext(context.Background())
	count := 0
	for {
		if _, ok := e.Next(); !ok {
			break
		}
		count++
	}
	if count != 14 {
		t.Fatalf("parallel C6 = %d results", count)
	}
}
