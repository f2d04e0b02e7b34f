package graph_test

// External test package, like canon_test.go: the oracle needs
// internal/bruteforce and internal/gen, both of which import
// internal/graph.

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkAutOracle compares graph.Automorphisms against the brute-force
// permutation sweep: exact search, exact group order, every reported
// generator a genuine automorphism, and no more generators than log2 of
// the order.
//
// The first two checks also fix the vertex orbits. Genuine generators
// generate a subgroup H of Aut(G). Order() is |H|, and the check pins it
// to |Aut(G)|, the brute-force count. A subgroup of a finite group with
// the same order is the whole group, so H = Aut(G), and H's vertex
// orbits are Aut(G)'s.
func checkAutOracle(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	aut := g.Automorphisms()
	if !aut.Exact() {
		t.Fatalf("%s: automorphism search fell back (budget exhausted on a tiny graph)", label)
	}
	all := bruteforce.Automorphisms(g)
	if want := big.NewInt(int64(len(all))); aut.Order().Cmp(want) != 0 {
		t.Fatalf("%s: group order %v, brute force found %d automorphisms", label, aut.Order(), len(all))
	}
	for gi, p := range aut.Generators() {
		checkIsAutomorphism(t, g, p, fmt.Sprintf("%s generator %d", label, gi))
	}
	checkFewGenerators(t, aut, label)
}

// checkFewGenerators asserts len(Generators()) ≤ log2|group|: every kept
// generator enlarges the group it joins, so by Lagrange each at least
// doubles the order.
func checkFewGenerators(t *testing.T, aut *graph.AutGroup, label string) {
	t.Helper()
	if n, limit := len(aut.Generators()), aut.Order().BitLen()-1; n > limit {
		t.Fatalf("%s: %d generators for a group of order %v (at most %d enlarge it)", label, n, aut.Order(), limit)
	}
}

func checkIsAutomorphism(t *testing.T, g *graph.Graph, p []int, label string) {
	t.Helper()
	n := g.Universe()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) != g.HasEdge(p[u], p[v]) {
				t.Fatalf("%s: not an automorphism (edge %d-%d vs %d-%d)", label, u, v, p[u], p[v])
			}
		}
	}
	if g.Vertices().Relabel(p).Equal(g.Vertices()) == false {
		t.Fatalf("%s: permutation does not preserve the active set", label)
	}
}

// TestAutomorphismsOracleAllSmallGraphs proves graph.Automorphisms
// exhaustively: on EVERY graph with up to 6 vertices, the search's
// discovered generators generate exactly the brute-force automorphism
// group — same order, hence same vertex orbits. This is the guarantee the
// orbit-reduced enumeration mode rests on (core's orbit sizes come from
// the group order via orbit-stabilizer).
func TestAutomorphismsOracleAllSmallGraphs(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	for n := 1; n <= maxN; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			pairs := n * (n - 1) / 2
			total := 1 << pairs
			workers := runtime.GOMAXPROCS(0)
			if workers > total {
				workers = total
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mask := w; mask < total; mask += workers {
						if t.Failed() {
							return
						}
						checkAutOracle(t, maskGraph(n, mask), fmt.Sprintf("n=%d mask=%d", n, mask))
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestAutomorphismsKnownGroups pins the group order on families where it
// is known in closed form: Aut(K_n) = S_n, Aut(C_n) = D_n (order 2n),
// Aut(P_n) = Z_2, Aut(Petersen) = S_5 (order 120), Aut(3×3 grid) = D_4.
// The generator count stays within log2 of the order even where the
// search meets many redundant automorphisms (K12, the 10-leaf star).
func TestAutomorphismsKnownGroups(t *testing.T) {
	petersen, err := gen.Named("petersen")
	if err != nil {
		t.Fatalf("petersen: %v", err)
	}
	star := graph.New(11)
	for leaf := 1; leaf <= 10; leaf++ {
		star.AddEdge(0, leaf)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		order int64
	}{
		{"K5", gen.Complete(5), 120},
		{"K7", gen.Complete(7), 5040},
		{"K12", gen.Complete(12), 479001600},
		{"Star10", star, 3628800},
		{"C6", gen.Cycle(6), 12},
		{"C12", gen.Cycle(12), 24},
		{"P5", gen.Path(5), 2},
		{"Grid3x3", gen.Grid(3, 3), 8},
		{"Grid2x4", gen.Grid(2, 4), 4},
		{"Petersen", petersen, 120},
	}
	for _, tc := range cases {
		aut := tc.g.Automorphisms()
		if !aut.Exact() {
			t.Errorf("%s: search fell back", tc.name)
			continue
		}
		if aut.Order().Cmp(big.NewInt(tc.order)) != 0 {
			t.Errorf("%s: group order %v, want %d", tc.name, aut.Order(), tc.order)
		}
		checkFewGenerators(t, aut, tc.name)
	}
}

// TestAutomorphismsInactiveVertices checks that generators fix inactive
// vertices, so orbits never cross the active boundary.
func TestAutomorphismsInactiveVertices(t *testing.T) {
	g := gen.Cycle(8)
	sub := g.InducedSubgraph(g.Vertices().Remove(7))
	aut := sub.Automorphisms()
	// C8 minus a vertex is P7: Aut = Z_2.
	if aut.Order().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("P7 group order %v, want 2", aut.Order())
	}
	for _, p := range aut.Generators() {
		if p[7] != 7 {
			t.Fatalf("generator moves inactive vertex 7 to %d", p[7])
		}
	}
}

// TestCanonicalFormAutBudgetPartial is the regression test for the
// budget-exhaustion bugfix: a budget-starved search on a highly symmetric
// graph must still surface the automorphisms it found before the stop —
// previously they were discarded along with the partial orbit structure.
// The returned group must be marked inexact, non-trivial, and consist of
// genuine automorphisms.
func TestCanonicalFormAutBudgetPartial(t *testing.T) {
	g := gen.Cycle(24)
	// Find a budget that exhausts mid-search but after at least two
	// leaves; scanning upward keeps the test robust to search-shape
	// changes (a fixed budget would silently turn vacuous).
	for budget := 3; budget < 1<<16; budget *= 2 {
		_, _, aut, exact := g.CanonicalFormAutBudget(budget)
		if exact {
			t.Fatalf("budget %d completed the search before any partial-group budget was found", budget)
		}
		if aut.Exact() {
			t.Fatalf("budget %d: exhausted search returned an Exact group", budget)
		}
		if aut.IsTrivial() {
			continue // too starved to reach two equal leaves yet
		}
		for gi, p := range aut.Generators() {
			checkIsAutomorphism(t, g, p, fmt.Sprintf("budget=%d generator %d", budget, gi))
		}
		if aut.Order().Cmp(big.NewInt(48)) > 0 {
			t.Fatalf("budget %d: partial group order %v exceeds |Aut(C24)| = 48", budget, aut.Order())
		}
		return // found a budget that surfaces a partial, non-trivial group
	}
	t.Fatalf("no budget produced a partial non-trivial group on C24")
}

// TestCanonicalKeyCellsPairInvariance drives the colored-pair encoding the
// core orbit mode uses: the key of the layered structure (G, H) must be
// invariant under simultaneous relabeling, and must separate pairs that
// are not cell-isomorphic.
func TestCanonicalKeyCellsPairInvariance(t *testing.T) {
	layered := func(g, h *graph.Graph) (*graph.Graph, [][]int) {
		verts := g.Vertices().Slice()
		k := len(verts)
		l := graph.New(2 * k)
		a := make([]int, k)
		b := make([]int, k)
		for i := 0; i < k; i++ {
			a[i], b[i] = i, k+i
			l.AddEdge(i, k+i)
			for j := i + 1; j < k; j++ {
				if g.HasEdge(verts[i], verts[j]) {
					l.AddEdge(i, j)
				}
				if h.HasEdge(verts[i], verts[j]) {
					l.AddEdge(k+i, k+j)
				}
			}
		}
		return l, [][]int{a, b}
	}
	key := func(g, h *graph.Graph) string {
		l, cells := layered(g, h)
		k, _, exact := l.CanonicalKeyCells(cells, 0)
		if !exact {
			t.Fatalf("layered search fell back")
		}
		return k
	}

	g := gen.Cycle(6)
	// Two triangulations of C6 in the same rotation orbit: fill {0-2,0-3,0-4}
	// rotated by two is {2-4,2-5,0-2}.
	h1 := g.Clone()
	h1.AddEdge(0, 2)
	h1.AddEdge(0, 3)
	h1.AddEdge(0, 4)
	h2 := g.Clone()
	h2.AddEdge(2, 4)
	h2.AddEdge(2, 5)
	h2.AddEdge(0, 2)
	if key(g, h1) != key(g, h2) {
		t.Fatalf("rotation-equivalent triangulations of C6 got distinct keys")
	}
	// The "fan" h1 vs the "triforce" (inner triangle 0-2-4) are NOT in
	// the same dihedral orbit (the fan has a degree-5 apex, the triforce's
	// maximum degree is 4); their pair keys must differ.
	h3 := g.Clone()
	h3.AddEdge(0, 2)
	h3.AddEdge(2, 4)
	h3.AddEdge(0, 4)
	if key(g, h1) == key(g, h3) {
		t.Fatalf("fan and triforce triangulations of C6 collided")
	}
	// Stabilizer sanity: the fan is fixed only by the reflection through
	// its apex (order 2).
	l1, cells1 := layered(g, h1)
	_, stab, exact := l1.CanonicalKeyCells(cells1, 0)
	if !exact {
		t.Fatalf("stabilizer search fell back")
	}
	if stab.Order().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("fan stabilizer order %v, want 2", stab.Order())
	}
}
