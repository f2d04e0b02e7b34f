// Package bruteforce holds exponential-time reference implementations used
// as ground truth by the test suite: all minimal separators by subset
// enumeration, all minimal triangulations by exhausting elimination
// orderings, maximal cliques by subset enumeration, and all potential
// maximal cliques via the triangulations.
//
// None of these depend on the polynomial machinery they are used to verify:
// separators and cliques come straight from the definitions, and
// triangulations come from the classical elimination-game fact that every
// minimal triangulation is the fill graph of each of its perfect
// elimination orderings.
package bruteforce

import (
	"sort"

	"repro/internal/chordal"
	"repro/internal/graph"
	"repro/internal/vset"
)

// AllMinimalSeparators enumerates MinSep(G) by checking every vertex
// subset against the full-component characterization: S is a minimal
// separator iff G \ S has at least two components whose neighborhood is
// exactly S. Exponential in |V|; intended for graphs with at most ~16
// active vertices. The empty separator is reported iff G is disconnected.
func AllMinimalSeparators(g *graph.Graph) []vset.Set {
	verts := g.Vertices().Slice()
	n := len(verts)
	var out []vset.Set
	for mask := 0; mask < 1<<uint(n); mask++ {
		s := vset.New(g.Universe())
		for i, v := range verts {
			if mask&(1<<uint(i)) != 0 {
				s.AddInPlace(v)
			}
		}
		if isMinimalSeparator(g, s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func isMinimalSeparator(g *graph.Graph, s vset.Set) bool {
	full := 0
	for _, c := range g.ComponentsAvoiding(s) {
		if g.NeighborsOfSet(c).Equal(s) {
			full++
			if full >= 2 {
				return true
			}
		}
	}
	return false
}

// IsMinimalSeparator reports whether s is a minimal separator of g,
// via the two-full-components characterization.
func IsMinimalSeparator(g *graph.Graph, s vset.Set) bool {
	return isMinimalSeparator(g, s)
}

// EliminationFill plays the elimination game on g with the given order:
// vertices are removed in order and their current neighborhoods saturated.
// The returned graph is g plus all fill edges — always a triangulation.
func EliminationFill(g *graph.Graph, order []int) *graph.Graph {
	h := g.Clone()
	remaining := g.Vertices().Clone()
	for _, v := range order {
		nv := h.Neighbors(v).Intersect(remaining)
		h.SaturateInPlace(nv)
		remaining.RemoveInPlace(v)
	}
	return h
}

// AllMinimalTriangulations enumerates every minimal triangulation of g by
// running the elimination game over all permutations of the active
// vertices and keeping the fill-minimal outcomes. Correctness rests on the
// classical fact that each minimal triangulation H equals the elimination
// fill of g under any perfect elimination ordering of H, so the permutation
// sweep produces a superset of the minimal triangulations; non-minimal
// outcomes are then filtered by pairwise fill comparison. Factorial in |V|;
// intended for graphs with at most ~8 active vertices.
func AllMinimalTriangulations(g *graph.Graph) []*graph.Graph {
	verts := g.Vertices().Slice()
	results := map[string]*graph.Graph{}
	permute(verts, func(order []int) {
		h := EliminationFill(g, order)
		results[h.EdgeSetKey()] = h
	})
	// Filter to fill-minimal results.
	type cand struct {
		h    *graph.Graph
		fill map[[2]int]bool
	}
	cands := make([]cand, 0, len(results))
	for _, h := range results {
		f := map[[2]int]bool{}
		for _, e := range chordal.FillEdges(g, h) {
			f[e] = true
		}
		cands = append(cands, cand{h, f})
	}
	var out []*graph.Graph
	for i, ci := range cands {
		minimal := true
		for j, cj := range cands {
			if i == j || len(cj.fill) >= len(ci.fill) {
				continue
			}
			subset := true
			for e := range cj.fill {
				if !ci.fill[e] {
					subset = false
					break
				}
			}
			if subset {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, ci.h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EdgeSetKey() < out[j].EdgeSetKey() })
	return out
}

// MaximalCliques returns the maximal cliques of g straight from the
// definition: the vertex subsets that are cliques and lose that property
// when any other active vertex joins, sorted canonically. Exponential in
// |V|; intended for graphs with at most ~8 active vertices.
func MaximalCliques(g *graph.Graph) []vset.Set {
	verts := g.Vertices().Slice()
	var out []vset.Set
	for mask := 1; mask < 1<<uint(len(verts)); mask++ {
		c := vset.New(g.Universe())
		for i, v := range verts {
			if mask&(1<<uint(i)) != 0 {
				c.AddInPlace(v)
			}
		}
		if !g.IsClique(c) {
			continue
		}
		maximal := true
		for _, v := range verts {
			if !c.Contains(v) && g.IsClique(c.Add(v)) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// AllPMCs enumerates the potential maximal cliques of g straight from the
// definition: the union of maximal-clique sets over all minimal
// triangulations.
func AllPMCs(g *graph.Graph) []vset.Set {
	seen := map[string]vset.Set{}
	for _, h := range AllMinimalTriangulations(g) {
		for _, c := range MaximalCliques(h) {
			seen[c.Key()] = c
		}
	}
	out := make([]vset.Set, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CliqueMinimalSeparators returns the minimal separators of g that are
// cliques, straight from the two definitions. The empty separator is
// included exactly when g is disconnected.
func CliqueMinimalSeparators(g *graph.Graph) []vset.Set {
	var out []vset.Set
	for _, s := range AllMinimalSeparators(g) {
		if g.IsClique(s) {
			out = append(out, s)
		}
	}
	return out
}

// Atoms computes the atoms of g — the maximal connected induced subgraphs
// without a clique separator — by recursively splitting on clique minimal
// separators and keeping the maximal distinct outcomes. Leimer proved the
// atom set is independent of the splitting order, but the naive recursion
// can emit duplicates and subsumed fragments, so both are filtered. This
// is the ground truth internal/atoms is cross-checked against.
func Atoms(g *graph.Graph) []vset.Set {
	if g.NumVertices() == 0 {
		return nil
	}
	found := map[string]vset.Set{}
	var rec func(w vset.Set)
	rec = func(w vset.Set) {
		sub := g.InducedSubgraph(w)
		for _, s := range AllMinimalSeparators(sub) {
			if !sub.IsClique(s) {
				continue
			}
			for _, c := range sub.ComponentsAvoiding(s) {
				rec(c.Union(s))
			}
			return
		}
		found[w.Key()] = w
	}
	rec(g.Vertices())
	var out []vset.Set
	for _, w := range found {
		maximal := true
		for _, other := range found {
			if !w.Equal(other) && w.SubsetOf(other) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// IsMinimalTriangulation reports whether h is a minimal triangulation of g
// by comparing its fill set against every minimal triangulation of g.
func IsMinimalTriangulation(h, g *graph.Graph) bool {
	if !chordal.IsTriangulationOf(h, g) {
		return false
	}
	key := h.EdgeSetKey()
	for _, m := range AllMinimalTriangulations(g) {
		if m.EdgeSetKey() == key {
			return true
		}
	}
	return false
}

// CanonicalCode returns the exhaustive-permutation canonical code of g:
// the numerically smallest packing of the adjacency matrix's upper
// triangle (pairs in lexicographic position order) over ALL orderings of
// the active vertices. Two graphs with equal active-vertex counts have
// equal codes iff they are isomorphic — the ground truth the polynomial
// canonical labeling (graph.CanonicalForm) is oracle-tested against.
// Factorial in the active count; panics beyond 11 active vertices (the
// largest k with k(k-1)/2 ≤ 64 code bits).
func CanonicalCode(g *graph.Graph) uint64 {
	verts := g.Vertices().Slice()
	k := len(verts)
	if k > 11 {
		panic("bruteforce: CanonicalCode needs ≤ 11 active vertices")
	}
	adj := make([][]bool, k)
	for i, u := range verts {
		adj[i] = make([]bool, k)
		for j, v := range verts {
			adj[i][j] = g.HasEdge(u, v)
		}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := ^uint64(0)
	first := true
	permute(idx, func(order []int) {
		var code uint64
		bit := 0
		for a := 0; a < k; a++ {
			ra := adj[order[a]]
			for b := a + 1; b < k; b++ {
				if ra[order[b]] {
					code |= 1 << uint(bit)
				}
				bit++
			}
		}
		if first || code < best {
			best = code
			first = false
		}
	})
	return best
}

// permute calls fn with every permutation of vs (Heap's algorithm).
// fn must not retain the slice.
func permute(vs []int, fn func([]int)) {
	n := len(vs)
	if n == 0 {
		fn(vs)
		return
	}
	c := make([]int, n)
	fn(vs)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				vs[0], vs[i] = vs[i], vs[0]
			} else {
				vs[c[i]], vs[i] = vs[i], vs[c[i]]
			}
			fn(vs)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// Automorphisms enumerates every automorphism of g by checking all
// permutations of the active vertices against the adjacency relation.
// Permutations are returned over the full universe, fixing inactive
// vertices. Factorial in |V|; intended for graphs with at most ~8 active
// vertices. This is the ground truth for graph.Automorphisms.
func Automorphisms(g *graph.Graph) [][]int {
	verts := g.Vertices().Slice()
	k := len(verts)
	adj := make([][]bool, k)
	for i, u := range verts {
		adj[i] = make([]bool, k)
		for j, v := range verts {
			adj[i][j] = g.HasEdge(u, v)
		}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	permute(idx, func(order []int) {
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if adj[a][b] != adj[order[a]][order[b]] {
					return
				}
			}
		}
		p := make([]int, g.Universe())
		for v := range p {
			p[v] = v
		}
		for i, j := range order {
			p[verts[i]] = verts[j]
		}
		out = append(out, p)
	})
	return out
}
