package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRankedStreamHashPinned pins a sha256 over the exact ranked streams
// (resultKey per rank) of a fixed corpus: monolithic, decomposed,
// width-bounded, generic-cost and orbit-reduced drains. The pinned value
// was computed before the empty-branch filter and the value-first
// candidate scan existed, so it checks both against the enumeration they
// replaced. The full-resolve oracle cannot: it shares solveBlock and the
// Lawler–Murty split with the code under test.
func TestRankedStreamHashPinned(t *testing.T) {
	const pinned = "033ddc0c7ea7ff2ffc68a2b6cf9c6d9fca130fb6a3d906a4a790c3355e86f7dd"
	if got := rankedStreamHash(t); got != pinned {
		t.Fatalf("ranked stream hash %s, pinned %s", got, pinned)
	}
}

// rankedStreamHash drains every stream of the corpus, up to 150 results
// each, sequentially.
func rankedStreamHash(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	graphs := []*graph.Graph{
		gen.PaperExample(),
		gen.Grid(3, 3),
		gen.CirculantGraph(8, []int{1}),
		disjointUnion(gen.Cycle(5), gen.Cycle(6)),
		gen.CliqueChain(rng, 3, 5, 2, 0.6),
	}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, gen.ConnectedGNP(rng, 9+i, 0.3))
	}
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}, cost.LexWidthFill{}, cost.TotalStateSpace{}, genericCost{cost.FillIn{}}}
	three := 3
	modes := []struct {
		name string
		opts Options
	}{
		{"mono", Options{noDecompose: true}},
		{"default", Options{}},
		{"bound3", Options{WidthBound: &three}},
	}
	h := sha256.New()
	for gi, g := range graphs {
		for _, c := range costs {
			for _, m := range modes {
				s, err := New(context.Background(), g, c, m.opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "graph %d cost %s mode %s\n", gi, c.Name(), m.name)
				for _, line := range collectEnumeration(s.EnumerateContext(context.Background()), 150) {
					fmt.Fprintln(h, line)
				}
				if m.name != "default" {
					continue
				}
				fmt.Fprintf(h, "orbit\n")
				e := NewOrbitBackend(s, nil).EnumerateContext(context.Background())
				for n := 0; n < 150; n++ {
					r, ok := e.Next()
					if !ok {
						break
					}
					fmt.Fprintf(h, "%d %s\n", r.OrbitSize, resultKey(r))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMISStreamHashPinned pins a sha256 over the first 20 results of the
// MIS backend's stream on five fixed graphs. The pinned value was
// computed on the per-vertex component search, so it checks that the
// separator stream, the crossing tests of the MIS moves and LB-Triang
// emit the same sequence over the word-parallel component walk.
func TestMISStreamHashPinned(t *testing.T) {
	const pinned = "6ecd1a7ad061307306fe7eb4e5686305b545395a0eb1b5e2180140452ce36a04"
	rng := rand.New(rand.NewSource(53))
	graphs := []*graph.Graph{
		gen.PaperExample(),
		gen.Grid(3, 4),
		gen.CirculantGraph(9, []int{1, 3}),
		disjointUnion(gen.Cycle(5), gen.Cycle(6)),
		gen.ConnectedGNP(rng, 30, 0.3),
	}
	h := sha256.New()
	for gi, g := range graphs {
		e := NewMISBackend(g, cost.FillIn{}, MISOptions{}).EnumerateContext(context.Background())
		fmt.Fprintf(h, "graph %d\n", gi)
		for _, line := range collectEnumeration(e, 20) {
			fmt.Fprintln(h, line)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("MIS stream hash %s, pinned %s", got, pinned)
	}
}
