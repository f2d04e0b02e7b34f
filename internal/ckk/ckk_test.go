package ckk

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestPaperExample(t *testing.T) {
	g := gen.PaperExample()
	results := New(g).All()
	if len(results) != 2 {
		t.Fatalf("CKK found %d triangulations, want 2", len(results))
	}
	for _, r := range results {
		if !chordal.IsTriangulationOf(r.H, g) {
			t.Fatalf("CKK emitted a non-triangulation")
		}
	}
}

func TestCompletenessAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.6)
		want := bruteforce.AllMinimalTriangulations(g)
		got := New(g).All()
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d): CKK found %d, oracle %d (edges=%v)",
				trial, n, len(got), len(want), g.Edges())
		}
		keys := map[string]bool{}
		for _, r := range got {
			k := r.H.EdgeSetKey()
			if keys[k] {
				t.Fatalf("trial %d: duplicate emitted", trial)
			}
			keys[k] = true
		}
		for _, h := range want {
			if !keys[h.EdgeSetKey()] {
				t.Fatalf("trial %d: oracle triangulation missed", trial)
			}
		}
	}
}

func TestResultsAreMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 40; trial++ {
		g := gen.GNP(rng, 3+rng.Intn(5), 0.4)
		for _, r := range New(g).All() {
			if !bruteforce.IsMinimalTriangulation(r.H, g) {
				t.Fatalf("non-minimal triangulation emitted")
			}
			st, err := chordal.Analyze(r.H)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Seps) != len(r.Seps) {
				t.Fatalf("Seps field inconsistent")
			}
			if !r.Tree.IsCliqueTreeOf(r.H, st.Cliques) {
				t.Fatalf("Tree is not a clique tree of H")
			}
		}
	}
}

func TestTrivialInputs(t *testing.T) {
	if got := New(graph.New(1)).All(); len(got) != 1 {
		t.Fatalf("single vertex: %d results", len(got))
	}
	if got := New(gen.Complete(4)).All(); len(got) != 1 {
		t.Fatalf("K4: %d results", len(got))
	}
	if got := New(gen.Path(5)).All(); len(got) != 1 {
		t.Fatalf("chordal graph: %d results, want 1 (itself)", len(got))
	}
}

func TestStreamingMatchesAll(t *testing.T) {
	g := gen.Cycle(6)
	e := New(g)
	count := 0
	for {
		_, ok := e.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 14 {
		t.Fatalf("C6: CKK streamed %d, want 14", count)
	}
}

func TestDisconnected(t *testing.T) {
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0) // C4: 2 minimal triangulations
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)
	g.AddEdge(7, 4) // another C4
	want := bruteforce.AllMinimalTriangulations(g)
	got := New(g).All()
	if len(got) != len(want) {
		t.Fatalf("disconnected: %d vs oracle %d", len(got), len(want))
	}
}

// TestTwentyResultWalkDrawsFewSeparators pins how many separators a
// 20-result walk draws from the stream on 20 fixed graphs shaped like
// the service's auto-routed MIS requests (connected G(n, p), n = 28–36,
// p = 0.25–0.35): 4 to 9 each, 137 in all. Handing the routing probe's
// separators to the walk would therefore save it little more than the
// stream's n seed walks in NewStream.
func TestTwentyResultWalkDrawsFewSeparators(t *testing.T) {
	want := []int{6, 8, 6, 6, 8, 8, 6, 6, 4, 6, 9, 7, 8, 6, 8, 9, 7, 7, 7, 5}
	rng := rand.New(rand.NewSource(29))
	for k, w := range want {
		g := gen.ConnectedGNP(rng, 28+k%9, 0.25+0.1*float64(k%4)/3)
		e := New(g)
		for i := 0; i < 20; i++ {
			if _, ok := e.Next(); !ok {
				t.Fatalf("graph %d: only %d results", k, i)
			}
		}
		if len(e.seps) != w {
			t.Errorf("graph %d: the walk drew %d separators, pinned %d", k, len(e.seps), w)
		}
	}
}
