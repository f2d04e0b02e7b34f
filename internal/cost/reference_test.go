package cost

import (
	"math/rand"
	"testing"

	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/triang"
	"repro/internal/vset"
)

// referenceMissingPairs and referenceDistinctMissingPairs are the fill
// counts the bit-row versions replaced, kept as their reference: a pair
// loop over each bag with HasEdge, and a map over all bag pairs.
func referenceMissingPairs(g *graph.Graph, omega, sep vset.Set) int {
	vs := omega.Slice()
	count := 0
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(vs[i], vs[j]) {
				continue
			}
			if sep.Contains(vs[i]) && sep.Contains(vs[j]) {
				continue
			}
			count++
		}
	}
	return count
}

func referenceDistinctMissingPairs(g *graph.Graph, bags []vset.Set) int {
	seen := map[[2]int]bool{}
	fill := 0
	for _, b := range bags {
		vs := b.Slice()
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				p := [2]int{vs[i], vs[j]}
				if seen[p] {
					continue
				}
				seen[p] = true
				if !g.HasEdge(vs[i], vs[j]) {
					fill++
				}
			}
		}
	}
	return fill
}

func randomSet(rng *rand.Rand, n int, p float64) vset.Set {
	s := vset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.AddInPlace(v)
		}
	}
	return s
}

// TestFillCountsMatchReference compares the bit-row fill counts with the
// replaced ones on the clique trees of LB-Triang outputs of seeded
// G(n, p), n = 20–40: the whole bag set, each clique against each
// separator, the empty set and a random set, and random overlapping bags.
// Three graphs over more than one word ride along.
func TestFillCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var graphs []*graph.Graph
	for trial := 0; trial < 40; trial++ {
		graphs = append(graphs, gen.GNP(rng, 20+rng.Intn(21), 0.1+0.3*rng.Float64()))
	}
	for _, n := range []int{65, 90, 130} {
		graphs = append(graphs, gen.GNP(rng, n, 0.04))
	}
	for gi, g := range graphs {
		n := g.Universe()
		st, err := chordal.Analyze(triang.Minimal(g))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := distinctMissingPairs(g, st.Cliques), referenceDistinctMissingPairs(g, st.Cliques); got != want {
			t.Fatalf("graph %d: fill %d, reference %d", gi, got, want)
		}
		random := make([]vset.Set, 1+rng.Intn(8))
		for i := range random {
			random[i] = randomSet(rng, n, 0.3)
		}
		if got, want := distinctMissingPairs(g, random), referenceDistinctMissingPairs(g, random); got != want {
			t.Fatalf("graph %d: fill of random bags %d, reference %d", gi, got, want)
		}
		seps := append([]vset.Set{vset.New(n), randomSet(rng, n, 0.5)}, st.Seps...)
		for _, omega := range append(st.Cliques, random...) {
			for _, sep := range seps {
				if got, want := missingPairs(g, omega, sep), referenceMissingPairs(g, omega, sep); got != want {
					t.Fatalf("graph %d: missing pairs of %v outside %v: %d, reference %d", gi, omega, sep, got, want)
				}
			}
		}
	}
}
