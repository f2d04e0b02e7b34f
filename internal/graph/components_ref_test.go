package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vset"
)

// referenceComponents is the component search the word-parallel walk
// replaced, kept as its reference: a depth-first search from the
// smallest remaining vertex that intersects each visited vertex's row
// with within in a fresh set.
func referenceComponents(g *Graph, within vset.Set) []vset.Set {
	remaining := within.Intersect(g.verts)
	var comps []vset.Set
	for !remaining.IsEmpty() {
		start := remaining.First()
		comp := vset.New(g.n)
		comp.AddInPlace(start)
		stack := []int{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			next := g.adj[v].Intersect(remaining)
			next.DiffInPlace(comp)
			next.ForEach(func(w int) bool {
				comp.AddInPlace(w)
				stack = append(stack, w)
				return true
			})
		}
		comps = append(comps, comp)
		remaining.DiffInPlace(comp)
	}
	return comps
}

// randomSubset draws each vertex of the universe with probability p.
func randomSubset(rng *rand.Rand, n int, p float64) vset.Set {
	s := vset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.AddInPlace(v)
		}
	}
	return s
}

// TestForEachComponentMatchesReference checks that the walk hands fn the
// components of the reference search, in its order, each with the
// NeighborsOfSet of that component, and that ComponentsWithin,
// ComponentsAvoiding, ComponentContaining and IsConnected agree with it.
// Universes run from 1 to 70, so sets span one and two words; half the
// graphs are induced subgraphs whose universe keeps inactive vertices.
func TestForEachComponentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 1; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			g := New(n)
			p := 2 * rng.Float64() / float64(n+3) // sparse: many components
			if trial%2 == 1 {
				p = 0.05 + 0.4*rng.Float64()
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						g.AddEdge(u, v)
					}
				}
			}
			if trial >= 2 {
				g = g.InducedSubgraph(randomSubset(rng, n, 0.75))
			}
			withins := []vset.Set{g.Vertices(), vset.Full(n), randomSubset(rng, n, 0.6), vset.New(n)}
			for wi, within := range withins {
				label := fmt.Sprintf("n=%d trial=%d within=%d", n, trial, wi)
				checkWalk(t, label, g, within)
			}
		}
	}
}

func checkWalk(t *testing.T, label string, g *Graph, within vset.Set) {
	t.Helper()
	want := referenceComponents(g, within)
	var got, gotN []vset.Set
	g.ForEachComponent(within, func(c, nc vset.Set) bool {
		got = append(got, c.Clone())
		gotN = append(gotN, nc.Clone())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%s: walk found %d components, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: component %d is %v, reference %v", label, i, got[i], want[i])
		}
		if nw := g.NeighborsOfSet(want[i]); !gotN[i].Equal(nw) {
			t.Fatalf("%s: N(C%d) is %v, NeighborsOfSet %v", label, i, gotN[i], nw)
		}
		members := want[i].Slice()
		last := members[len(members)-1]
		if c := g.ComponentContaining(last, within); !c.Equal(want[i]) {
			t.Fatalf("%s: ComponentContaining(%d) is %v, reference %v", label, last, c, want[i])
		}
	}
	comps := g.ComponentsWithin(within)
	if len(comps) != len(want) {
		t.Fatalf("%s: ComponentsWithin found %d components, reference %d", label, len(comps), len(want))
	}
	for i := range want {
		if !comps[i].Equal(want[i]) {
			t.Fatalf("%s: ComponentsWithin[%d] is %v, reference %v", label, i, comps[i], want[i])
		}
	}
	avoid := g.Vertices().Diff(within)
	if a := g.ComponentsAvoiding(avoid); len(a) != len(want) {
		t.Fatalf("%s: ComponentsAvoiding found %d components, reference %d", label, len(a), len(want))
	}
	if within.Equal(g.Vertices()) {
		if conn := g.IsConnected(); conn != (len(want) <= 1) {
			t.Fatalf("%s: IsConnected %v with %d components", label, conn, len(want))
		}
	}
	if len(want) > 1 {
		calls := 0
		g.ForEachComponent(within, func(_, _ vset.Set) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("%s: the walk called fn %d times after fn returned false", label, calls)
		}
	}
}
