package minsep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// drainStream draws every separator of a fresh stream over g, failing on
// a repeat or on the empty set, and returns them keyed by vset.Key.
func drainStream(t *testing.T, g *graph.Graph) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	st := NewStream(g)
	for {
		s, ok := st.Next(context.Background())
		if !ok {
			return got
		}
		if s.IsEmpty() {
			t.Fatalf("stream yielded the empty separator (edges=%v)", g.Edges())
		}
		if got[s.Key()] {
			t.Fatalf("stream yielded %v twice (edges=%v)", s, g.Edges())
		}
		got[s.Key()] = true
	}
}

// TestStreamMatchesBruteForce checks the stream against the
// full-component oracle, not against All, which drains the stream: each
// non-empty minimal separator exactly once, on random graphs that may be
// disconnected and on induced subgraphs whose universe keeps inactive
// vertices (the PMC enumeration runs MinSep on vertex prefixes).
func TestStreamMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	for trial := 0; trial < 120; trial++ {
		g := gen.GNP(rng, 2+rng.Intn(9), 0.15+rng.Float64()*0.6)
		if trial%3 == 0 {
			keep := vset.New(g.Universe())
			for _, v := range g.Vertices().Slice() {
				if rng.Intn(4) != 0 {
					keep.AddInPlace(v)
				}
			}
			g = g.InducedSubgraph(keep)
		}
		want := map[string]bool{}
		for _, s := range bruteforce.AllMinimalSeparators(g) {
			if !s.IsEmpty() {
				want[s.Key()] = true
			}
		}
		got := drainStream(t, g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: stream produced %d separators, oracle %d (edges=%v)",
				trial, len(got), len(want), g.Edges())
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: stream missed a separator (edges=%v)", trial, g.Edges())
			}
		}
	}
}

// TestAllDisconnectedListsEmptyOnce pins the one separator All adds to
// the stream's output: a disconnected graph lists ∅ exactly once, a
// connected one never, and the stream yields it for neither.
func TestAllDisconnectedListsEmptyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	union := func(a, b *graph.Graph, isolated int) *graph.Graph {
		na, nb := a.NumVertices(), b.NumVertices()
		g := graph.New(na + nb + isolated)
		for _, e := range a.Edges() {
			g.AddEdge(e[0], e[1])
		}
		for _, e := range b.Edges() {
			g.AddEdge(na+e[0], na+e[1])
		}
		return g
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"two isolated vertices", graph.New(2)},
		{"C4 plus an isolated vertex", union(gen.Cycle(4), graph.New(0), 1)},
		{"P3 and C5", union(gen.Path(3), gen.Cycle(5), 0)},
		{"paper example twice", union(gen.PaperExample(), gen.PaperExample(), 0)},
	}
	for i := 0; i < 6; i++ {
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{"random union", union(gen.ConnectedGNP(rng, 2+rng.Intn(5), 0.4), gen.ConnectedGNP(rng, 1+rng.Intn(5), 0.4), rng.Intn(2))})
	}
	for _, tc := range cases {
		empties := 0
		for _, s := range All(tc.g) {
			if s.IsEmpty() {
				empties++
			}
		}
		if empties != 1 {
			t.Errorf("%s: All lists ∅ %d times, want once", tc.name, empties)
		}
		drainStream(t, tc.g)
		if len(All(tc.g)) != len(bruteforce.AllMinimalSeparators(tc.g)) {
			t.Errorf("%s: All disagrees with the oracle", tc.name)
		}
	}
	for _, g := range []*graph.Graph{graph.New(1), gen.Path(4), gen.Cycle(6), gen.PaperExample()} {
		for _, s := range All(g) {
			if s.IsEmpty() {
				t.Errorf("connected graph (edges=%v): All lists ∅", g.Edges())
			}
		}
	}
}

// TestStreamOrderPinned pins the order the stream hands separators out,
// FIFO by discovery. The MIS walk draws its moves in this order, but its
// own pinned hash (core's TestMISStreamHashPinned) reads only the first
// 20 results per graph, which an expansion-order change can leave alone.
// The value was computed on the separator stream ckk kept before the
// stream moved here.
func TestStreamOrderPinned(t *testing.T) {
	const pinned = "da87b4698ba456312174b65e72a70f0c684c740c6a489ed3fe253e9e5a7d6cf9"
	rng := rand.New(rand.NewSource(61))
	graphs := []*graph.Graph{
		gen.PaperExample(),
		gen.Grid(3, 4),
		gen.CirculantGraph(9, []int{1, 3}),
		gen.GNP(rng, 14, 0.15), // disconnected
		gen.ConnectedGNP(rng, 18, 0.3),
	}
	h := sha256.New()
	for gi, g := range graphs {
		fmt.Fprintf(h, "graph %d\n", gi)
		st := NewStream(g)
		for {
			s, ok := st.Next(context.Background())
			if !ok {
				break
			}
			fmt.Fprintln(h, s)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("stream order hash %s, pinned %s", got, pinned)
	}
}

func TestStreamCancelled(t *testing.T) {
	g := gen.GNP(rand.New(rand.NewSource(7)), 10, 0.4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewStream(g)
	// The neighborhood-seeded prefix is computed at construction, so a few
	// draws may still succeed; the stream must stop at the first expansion
	// step after cancellation instead of producing the full closure.
	n := 0
	for {
		if _, ok := st.Next(ctx); !ok {
			break
		}
		n++
		if n > 10*g.NumVertices() {
			t.Fatal("cancelled separator stream keeps producing")
		}
	}
}

// TestAllCtxAborted checks the abort contract the tractability
// experiments read: a cancelled closure reports ok=false with a partial
// list of distinct separators shorter than MinSep(G), and a live
// context completes with All's sorted list.
func TestAllCtxAborted(t *testing.T) {
	g := gen.ConnectedGNP(rand.New(rand.NewSource(8)), 14, 0.3)
	full := All(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, ok := AllCtx(ctx, g)
	if ok {
		t.Fatal("cancelled AllCtx reported a complete closure")
	}
	if len(part) >= len(full) {
		t.Fatalf("cancelled AllCtx listed %d of %d separators", len(part), len(full))
	}
	seen := map[string]bool{}
	for _, s := range part {
		if seen[s.Key()] {
			t.Fatalf("partial list repeats %v", s)
		}
		seen[s.Key()] = true
	}
	got, ok := AllCtx(context.Background(), g)
	if !ok || len(got) != len(full) {
		t.Fatalf("live AllCtx: ok=%v, %d separators, want %d", ok, len(got), len(full))
	}
	for i := range got {
		if !got[i].Equal(full[i]) {
			t.Fatalf("live AllCtx differs from All at %d", i)
		}
	}
}
