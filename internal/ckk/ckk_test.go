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
			seps, err := chordal.MinimalSeparators(r.H)
			if err != nil {
				t.Fatal(err)
			}
			if len(seps) != len(r.Seps) {
				t.Fatalf("Seps field inconsistent")
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
