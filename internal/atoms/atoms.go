// Package atoms computes the clique-minimal-separator decomposition of a
// graph: the unique tree of "atoms" — maximal connected subgraphs with no
// clique separator (Tarjan 1985; Leimer 1993) — obtained by recursively
// splitting on minimal separators that are cliques.
//
// The decomposition matters for ranked enumeration because minimal
// triangulations factor across it: H is a minimal triangulation of G iff
// H is the union of minimal triangulations of the atoms of G (Leimer), a
// fact the sibling enumeration paper (Carmeli, Kenig, Kimelfeld) exploits.
// The solver in internal/core uses it to turn one |MinSep|-exponential
// instance into several independent small ones and merge their ranked
// streams.
//
// The algorithm is the Berry–Pogorelčnik–Simonet formulation of
// Tarjan's decomposition ("An introduction to clique minimal separator
// decomposition", 2010): compute a minimal triangulation H of G with a
// minimal elimination ordering (MCS-M), then walk the ordering once; each
// vertex whose madj (its H-neighbors not yet eliminated) is a clique of G
// exposes a clique minimal separator, and the component of the vertex on
// its side of that separator is split off as an atom. The whole
// decomposition is polynomial — O(n·m) for MCS-M plus O(n·m) for the walk
// — in contrast to everything downstream of it.
package atoms

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/triang"
	"repro/internal/vset"
)

// Atom is one node of the atom tree: an induced subgraph of the input
// graph with no clique separator.
type Atom struct {
	// Vertices is the atom's vertex set S ∪ C over the input universe.
	Vertices vset.Set
	// Sep is the clique minimal separator through which the atom was
	// split off — the atom's interface to its parent. Empty for the last
	// atom of each connected component.
	Sep vset.Set
	// Parent indexes the atom containing Sep (every clique of the
	// remainder lies inside a single later atom), or is -1 for atoms with
	// an empty Sep. Parent edges form a forest with one root per
	// connected component of the input.
	Parent int
}

// Decomposition is the clique-minimal-separator decomposition of a graph.
type Decomposition struct {
	// Atoms lists the atoms in the order the decomposition split them
	// off; within one connected component an atom's parent always comes
	// later in the list.
	Atoms []Atom
	// CliqueSeps holds the distinct clique minimal separators of the
	// graph in canonical order. The empty separator is included exactly
	// when the graph is disconnected, mirroring minsep.All.
	CliqueSeps []vset.Set
}

// Decompose returns the clique-minimal-separator decomposition of g. The
// atom set is unique (Leimer 1993); the order of atoms depends on the
// deterministic MCS-M ordering, so equal graphs decompose identically.
func Decompose(g *graph.Graph) *Decomposition {
	d := &Decomposition{}
	comps := g.ComponentsWithin(g.Vertices())
	sepSeen := map[string]bool{}
	for _, comp := range comps {
		decomposeComponent(g, comp, d, sepSeen)
	}
	if len(comps) > 1 {
		d.CliqueSeps = append(d.CliqueSeps, vset.New(g.Universe()))
	}
	sort.Slice(d.CliqueSeps, func(i, j int) bool {
		return d.CliqueSeps[i].Compare(d.CliqueSeps[j]) < 0
	})
	return d
}

// decomposeComponent runs the Berry–Pogorelčnik–Simonet walk on one
// connected component and appends its atoms (parent-linked) to d.
func decomposeComponent(g *graph.Graph, comp vset.Set, d *Decomposition, sepSeen map[string]bool) {
	first := len(d.Atoms)
	gc := g.InducedSubgraph(comp)
	h, picked := triang.MCSMOrder(gc)

	// Walk the minimal elimination ordering of H: the vertex picked last
	// by MCS-M is eliminated first. remaining tracks the vertex set of
	// H' — vertices neither eliminated by the walk nor shipped inside an
	// earlier atom's component (the paper's H' := H' − x and H' := H' − C
	// steps) — so madj(x) = N_H(x) ∩ remaining. w tracks the vertex set
	// of the shrinking graph G'.
	w := comp.Clone()
	remaining := comp.Clone()
	for i := len(picked) - 1; i >= 0; i-- {
		x := picked[i]
		remaining.RemoveInPlace(x)
		if !w.Contains(x) {
			continue // already split off inside an earlier atom
		}
		s := h.Neighbors(x).Intersect(remaining)
		s.IntersectInPlace(w)
		if !g.IsClique(s) {
			continue
		}
		// The madj of x is a clique of G, but that alone does not make it
		// a clique *minimal* separator of the current graph G' — e.g. the
		// parent clique of a simplicial vertex may strictly contain the
		// true separator, and splitting on it would over-decompose.
		// Require the definition: at least two components of G' \ S whose
		// neighborhood is exactly S.
		if !isMinimalSeparatorWithin(g, w, s) {
			continue
		}
		c := g.ComponentContaining(x, w.Diff(s))
		d.Atoms = append(d.Atoms, Atom{Vertices: c.Union(s), Sep: s, Parent: -1})
		if key := s.Key(); !sepSeen[key] {
			sepSeen[key] = true
			d.CliqueSeps = append(d.CliqueSeps, s)
		}
		w.DiffInPlace(c)
	}
	d.Atoms = append(d.Atoms, Atom{Vertices: w, Sep: vset.New(g.Universe()), Parent: -1})

	// Parent links: each split-off atom's separator is a clique of the
	// remainder, so it lies inside a single later atom of this component.
	for i := first; i < len(d.Atoms)-1; i++ {
		a := &d.Atoms[i]
		for j := i + 1; j < len(d.Atoms); j++ {
			if a.Sep.SubsetOf(d.Atoms[j].Vertices) {
				a.Parent = j
				break
			}
		}
		if a.Parent < 0 {
			// Unreachable if the decomposition is correct (the invariant
			// is cross-checked against internal/bruteforce).
			panic(fmt.Sprintf("atoms: separator %v of atom %d not contained in any later atom", a.Sep, i))
		}
	}
}

// isMinimalSeparatorWithin reports whether s is a minimal separator of
// G[w]: G[w] \ s has at least two components whose neighborhood within w
// is exactly s. s ⊆ w, and a component C of G[w \ s] has no neighbor in
// w \ s outside C, so N(C) ∩ w = s exactly when s ⊆ N(C).
func isMinimalSeparatorWithin(g *graph.Graph, w, s vset.Set) bool {
	full := 0
	g.ForEachComponent(w.Diff(s), func(_, nc vset.Set) bool {
		if s.SubsetOf(nc) {
			full++
		}
		return full < 2
	})
	return full >= 2
}

// Count returns the number of atoms.
func (d *Decomposition) Count() int { return len(d.Atoms) }

// LargestAtom returns the vertex count of the largest atom, the quantity
// that governs the exponential part of solver initialization after
// decomposition.
func (d *Decomposition) LargestAtom() int {
	max := 0
	for _, a := range d.Atoms {
		if n := a.Vertices.Len(); n > max {
			max = n
		}
	}
	return max
}
