package pmc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/minsep"
	"repro/internal/vset"
)

// referenceEnumerate is the vertex-incremental enumeration the three
// candidate rules of enumerate replaced, kept as its reference: it tests
// every old PMC Ω and Ω ∪ {a}, every S ∪ {a}, and case (4) over every
// component of every new separator, and it computes MinSep of the last
// prefix itself. It also returns its IsPMC call count.
func referenceEnumerate(ctx context.Context, g *graph.Graph, maxSize int) ([]vset.Set, int, bool) {
	verts := g.Vertices().Slice()
	n := g.Universe()
	current := intern.New(0)
	var prevSeps []vset.Set
	prevSepTab := intern.New(0)
	prefix := vset.New(n)
	tests := 0
	for i, a := range verts {
		if ctx.Err() != nil {
			return nil, tests, false
		}
		prefix.AddInPlace(a)
		gi := g.InducedSubgraph(prefix)
		next := intern.New(current.Len())
		consider := func(omega vset.Set) {
			if maxSize >= 0 && omega.Len() > maxSize {
				return
			}
			if next.Contains(omega) {
				return
			}
			tests++
			if IsPMC(gi, omega) {
				next.Intern(omega)
			}
		}
		if i == 0 {
			consider(vset.Of(n, a))
			current = next
			prevSeps, _ = minsep.AllCtx(ctx, gi)
			prevSepTab = intern.FromSets(prevSeps)
			continue
		}
		seps, sepsOK := minsep.AllCtx(ctx, gi)
		if !sepsOK {
			return nil, tests, false
		}
		for _, omega := range current.Sets() {
			consider(omega)
			consider(omega.Add(a))
		}
		for _, s := range seps {
			if !s.Contains(a) {
				consider(s.Add(a))
				if !prevSepTab.Contains(s) {
					gi.ForEachComponent(gi.Vertices().Diff(s), func(c, _ vset.Set) bool {
						for _, t := range prevSeps {
							if t.Intersects(c) {
								consider(s.Union(t.Intersect(c)))
							}
						}
						return true
					})
				}
			}
		}
		current = next
		prevSeps = seps
		prevSepTab = intern.FromSets(seps)
	}
	out := append([]vset.Set(nil), current.Sets()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, tests, true
}

// checkAgainstReference compares Enumerate with the reference element
// for element, unbounded and at size bounds 2–5. A bound of at least
// |V| bounds nothing, so the unbounded run covers it.
func checkAgainstReference(g *graph.Graph) error {
	ctx := context.Background()
	seps := minsep.All(g)
	for _, maxSize := range []int{-1, 2, 3, 4, 5} {
		if maxSize >= g.NumVertices() {
			break
		}
		want, _, _ := referenceEnumerate(ctx, g, maxSize)
		got, err := Enumerate(ctx, g, seps, maxSize)
		if err != nil {
			return fmt.Errorf("bound %d: %v", maxSize, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("bound %d: %d PMCs, reference %d\ngot=%v\nwant=%v\nedges=%v",
				maxSize, len(got), len(want), got, want, g.Edges())
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				return fmt.Errorf("bound %d: PMC %d is %v, reference %v", maxSize, i, got[i], want[i])
			}
		}
	}
	return nil
}

// TestEnumerateMatchesReferenceAllSmallGraphs runs the comparison on
// every labeled graph with at most six vertices, sharded over
// GOMAXPROCS workers.
func TestEnumerateMatchesReferenceAllSmallGraphs(t *testing.T) {
	for n := 1; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		total := 1 << len(pairs)
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for mask := w; mask < total && !t.Failed(); mask += workers {
					g := graph.New(n)
					for i, p := range pairs {
						if mask>>i&1 == 1 {
							g.AddEdge(p[0], p[1])
						}
					}
					if err := checkAgainstReference(g); err != nil {
						t.Errorf("n=%d mask=%d: %v", n, mask, err)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestEnumerateMatchesReferenceGNP runs the comparison on seeded G(n, p)
// with n 7–26, connected and not; the density falls with n to keep
// |MinSep| unit-test sized.
func TestEnumerateMatchesReferenceGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	for n := 7; n <= 26; n++ {
		for trial := 0; trial < 3; trial++ {
			p := 0.1 + (0.6-0.02*float64(n))*rng.Float64()
			var g *graph.Graph
			if trial == 0 {
				g = gen.GNP(rng, n, p)
			} else {
				g = gen.ConnectedGNP(rng, n, p)
			}
			if err := checkAgainstReference(g); err != nil {
				t.Fatalf("G(%d, %.2f) trial %d: %v", n, p, trial, err)
			}
		}
	}
}

// TestIsPMCCallsPinned pins the number of IsPMC calls the enumeration
// makes on the cold-init corpus, next to the reference's count, so a
// change to the candidate rules shows as a count.
func TestIsPMCCallsPinned(t *testing.T) {
	const wantTests, wantReference = 18391, 29822
	ctx := context.Background()
	tests, reference := 0, 0
	for i, g := range gen.ColdInitCorpus() {
		want, r, _ := referenceEnumerate(ctx, g, -1)
		got, n, _ := enumerate(ctx, g, minsep.All(g), -1)
		if len(got) != len(want) {
			t.Fatalf("graph %d: %d PMCs, reference %d", i, len(got), len(want))
		}
		tests += n
		reference += r
	}
	if tests != wantTests || reference != wantReference {
		t.Fatalf("IsPMC calls: %d, reference %d; want %d and %d", tests, reference, wantTests, wantReference)
	}
}
