package pmc

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/minsep"
	"repro/internal/vset"
)

func TestIsPMCPaperExample(t *testing.T) {
	// Example 5.2: PMC(G) contains {u,w1,w2,w3} and {u,v,w1}.
	g := gen.PaperExample()
	yes := []vset.Set{
		vset.Of(6, 0, 3, 4, 5), // {u, w1, w2, w3}
		vset.Of(6, 1, 3, 4, 5), // {v, w1, w2, w3}
		vset.Of(6, 0, 1, 3),    // {u, v, w1}
		vset.Of(6, 0, 1, 4),
		vset.Of(6, 0, 1, 5),
		vset.Of(6, 1, 2), // {v, v'}
	}
	for _, omega := range yes {
		if !IsPMC(g, omega) {
			t.Errorf("IsPMC(%v) = false, want true", omega)
		}
	}
	no := []vset.Set{
		vset.Of(6, 3, 4, 5),       // S1 — a minimal separator, never a PMC
		vset.Of(6, 0, 1),          // S2
		vset.Of(6, 1),             // S3: full component exists
		vset.Of(6, 0, 1, 3, 4, 5), // too large: v' makes no component cover u,v... still has component {v'} with N={1}≠Ω, but u..v pairs? u,v covered? components: {v'}, N={v}≠Ω; pair (u,v) non-adjacent and no component covers it
		vset.New(6),
	}
	for _, omega := range no {
		if IsPMC(g, omega) {
			t.Errorf("IsPMC(%v) = true, want false", omega)
		}
	}
}

func TestAllPaperExample(t *testing.T) {
	g := gen.PaperExample()
	got := All(g)
	want := []vset.Set{
		vset.Of(6, 1, 2),
		vset.Of(6, 0, 1, 3),
		vset.Of(6, 0, 1, 4),
		vset.Of(6, 0, 1, 5),
		vset.Of(6, 0, 3, 4, 5),
		vset.Of(6, 1, 3, 4, 5),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d PMCs: %v", len(got), got)
	}
	keys := map[string]bool{}
	for _, o := range got {
		keys[o.Key()] = true
	}
	for _, w := range want {
		if !keys[w.Key()] {
			t.Errorf("missing PMC %v", w)
		}
	}
}

func TestAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.15+rng.Float64()*0.65)
		got := All(g)
		want := bruteforce.AllPMCs(g)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d): got %d PMCs, oracle %d\ngot=%v\nwant=%v\ngraph=%v",
				trial, n, len(got), len(want), got, want, g.Edges())
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("PMC mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestAllMatchesBruteForceStructured(t *testing.T) {
	cases := []*graph.Graph{
		gen.Cycle(6),
		gen.Path(7),
		gen.Complete(5),
		gen.Grid(2, 4),
		gen.PaperExample(),
	}
	for i, g := range cases {
		got := All(g)
		want := bruteforce.AllPMCs(g)
		if len(got) != len(want) {
			t.Fatalf("case %d: got %d PMCs, oracle %d", i, len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("case %d: PMC mismatch", i)
			}
		}
	}
}

func TestAtMostFilters(t *testing.T) {
	g := gen.PaperExample()
	seps := minsep.All(g)
	small, err := Enumerate(context.Background(), g, seps, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range small {
		if o.Len() > 3 {
			t.Fatalf("Enumerate(3) returned oversized PMC %v", o)
		}
	}
	// All PMCs of size ≤ 3 must be present.
	count := 0
	for _, o := range All(g) {
		if o.Len() <= 3 {
			count++
		}
	}
	if len(small) != count {
		t.Fatalf("Enumerate(3) = %d PMCs, want %d", len(small), count)
	}
	// A cancelled context stops the enumeration with no partial list.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := Enumerate(ctx, g, seps, 3); out != nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled Enumerate = %v, %v; want nil, ErrDeadline", out, err)
	}
}

func TestFullBlocks(t *testing.T) {
	g := gen.PaperExample()
	seps := minsep.All(g)
	blocks := FullBlocks(g, seps)
	// From Figure 2: all blocks are full except (S2, C4={v'}).
	// Blocks: (S1,{u}), (S1,{v,v'}), (S2,{w1}), (S2,{w2}), (S2,{w3}),
	// (S3,{v'}), (S3,{u,w1,w2,w3}) full; (S2,{v'}) not full.
	if len(blocks) != 7 {
		t.Fatalf("got %d full blocks, want 7: %v", len(blocks), blocks)
	}
	for i := 1; i < len(blocks); i++ {
		a := blocks[i-1].S.Len() + blocks[i-1].C.Len()
		b := blocks[i].S.Len() + blocks[i].C.Len()
		if a > b {
			t.Fatalf("blocks not sorted by cardinality")
		}
	}
	for _, b := range blocks {
		if !g.NeighborsOfSet(b.C).Equal(b.S) {
			t.Fatalf("non-full block reported")
		}
		r := g.Realization(b.S, b.C)
		if !r.IsClique(b.S) {
			t.Fatalf("realization separator not saturated")
		}
	}
}

func TestBlockKeyDistinguishes(t *testing.T) {
	n := 6
	b1 := Block{S: vset.Of(n, 0), C: vset.Of(n, 1, 2)}
	b2 := Block{S: vset.Of(n, 0, 1), C: vset.Of(n, 2)}
	if b1.Key() == b2.Key() {
		t.Fatalf("blocks with same union share a key")
	}
	if !b1.Vertices().Equal(b2.Vertices()) {
		t.Fatalf("test setup wrong")
	}
}
