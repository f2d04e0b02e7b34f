package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmc"
	"repro/internal/vset"
)

// referenceBuildBlocks is the block build the per-PMC walk replaced,
// kept as its reference: for every (block, PMC) pair with S ⊊ Ω ⊆ span
// it searches the components of span \ Ω and looks each child block up
// by its key, dropping the PMC when one is missing.
func referenceBuildBlocks(s *Solver) []blockData {
	g := s.g
	full := pmc.FullBlocks(g, s.seps)
	index := map[string]int{}
	for i, b := range full {
		index[b.Key()] = i
	}
	blocks := make([]blockData, 0, len(full)+1)
	for _, b := range full {
		blocks = append(blocks, blockData{block: b, span: b.Vertices()})
	}
	top := pmc.Block{S: vset.New(g.Universe()), C: g.Vertices().Clone()}
	blocks = append(blocks, blockData{block: top, span: g.Vertices().Clone()})
	for i := range blocks {
		bd := &blocks[i]
		for pi, omega := range s.pmcs {
			if !omega.SubsetOf(bd.span) || !bd.block.S.ProperSubsetOf(omega) {
				continue
			}
			cand := candidate{omega: omega, pmcID: pi}
			ok := true
			for _, ci := range g.ComponentsWithin(bd.span.Diff(omega)) {
				si := g.NeighborsOfSet(ci).Intersect(bd.span)
				child, found := index[(pmc.Block{S: si, C: ci}).Key()]
				if !found {
					ok = false
					break
				}
				cand.children = append(cand.children, child)
			}
			if ok {
				if s.comb != nil {
					cand.max = s.comb.BagMax(g, omega)
					cand.sum = s.comb.BagSum(g, omega, bd.block.S)
				}
				bd.cands = append(bd.cands, cand)
			}
		}
	}
	return blocks
}

// TestBuildBlocksMatchesReference checks that the per-PMC block build
// produces the blocks of the (block, PMC) scan with the same candidates,
// element for element and in the same order, over G(n, p) with n 7–16,
// clique chains, disjoint unions and width bounds 2–4, for a Combinable
// and a generic cost. Decomposed solvers are checked atom by atom.
func TestBuildBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	type named struct {
		name string
		g    *graph.Graph
	}
	var corpus []named
	for n := 7; n <= 16; n++ {
		corpus = append(corpus, named{fmt.Sprintf("gnp%d", n), gen.ConnectedGNP(rng, n, 0.2+0.3*rng.Float64())})
	}
	corpus = append(corpus,
		named{"chain3x5", gen.CliqueChain(rng, 3, 5, 2, 0.6)},
		named{"chain4x6", gen.CliqueChain(rng, 4, 6, 2, 0.5)},
		named{"C5+C6", disjointUnion(gen.Cycle(5), gen.Cycle(6))},
		named{"C6+gnp8", disjointUnion(gen.Cycle(6), gen.ConnectedGNP(rng, 8, 0.35))},
		named{"K1+P3", disjointUnion(graph.New(1), gen.Path(3))},
	)
	costs := []cost.Cost{cost.FillIn{}, genericCost{cost.Width{}}}
	bounds := []int{-1, 2, 3, 4}
	checked := 0
	for _, tc := range corpus {
		for _, c := range costs {
			for _, b := range bounds {
				for _, mono := range []bool{true, false} {
					opts := Options{noDecompose: mono}
					if b >= 0 {
						bb := b
						opts.WidthBound = &bb
					}
					s, err := New(context.Background(), tc.g, c, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s bound %d mono %v", tc.name, c.Name(), b, mono)
					solvers := []*Solver{s}
					if s.dec != nil {
						solvers = s.subs
					}
					for ai, sub := range solvers {
						compareBlocks(t, fmt.Sprintf("%s atom %d", label, ai), sub.blocks, referenceBuildBlocks(sub))
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no solver checked")
	}
}

func compareBlocks(t *testing.T, label string, got, want []blockData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if !g.block.S.Equal(w.block.S) || !g.block.C.Equal(w.block.C) || !g.span.Equal(w.span) {
			t.Fatalf("%s: block %d is (%v, %v), reference (%v, %v)", label, i, g.block.S, g.block.C, w.block.S, w.block.C)
		}
		if len(g.cands) != len(w.cands) {
			t.Fatalf("%s: block %d has %d candidates, reference %d", label, i, len(g.cands), len(w.cands))
		}
		for j := range w.cands {
			gc, wc := &g.cands[j], &w.cands[j]
			if !gc.omega.Equal(wc.omega) || gc.pmcID != wc.pmcID || gc.max != wc.max || gc.sum != wc.sum ||
				fmt.Sprint(gc.children) != fmt.Sprint(wc.children) {
				t.Fatalf("%s: block %d candidate %d is %v#%d children %v max %v sum %v, reference %v#%d children %v max %v sum %v",
					label, i, j, gc.omega, gc.pmcID, gc.children, gc.max, gc.sum, wc.omega, wc.pmcID, wc.children, wc.max, wc.sum)
			}
		}
	}
}
