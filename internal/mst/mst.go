// Package mst computes maximum-weight spanning trees and enumerates all
// of them (in the spirit of Yamada, Kataoka and Watanabe 2010, via
// Lawler-style include/exclude branching). The paper needs this because
// the clique trees of a chordal graph are exactly the maximum-weight
// spanning trees of its clique graph weighted by adhesion size (Jordan),
// which is how proper tree decompositions are enumerated from minimal
// triangulations (Proposition 6.1).
package mst

import (
	"sort"
)

// Edge is a weighted undirected edge between node indices A and B.
type Edge struct {
	A, B int
	W    int
}

// unionFind is a standard disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(x, y int) bool {
	rx, ry := uf.find(x), uf.find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Max returns a maximum-weight spanning tree of the graph on n nodes with
// the given edges, honoring constraints: edges listed in include are
// forced into the tree and indices in exclude are forbidden. It reports
// ok=false when no spanning tree satisfies the constraints.
// include and exclude are indices into edges.
func Max(n int, edges []Edge, include, exclude []int) (tree []int, weight int, ok bool) {
	if n == 0 {
		return nil, 0, true
	}
	excluded := map[int]bool{}
	for _, i := range exclude {
		excluded[i] = true
	}
	uf := newUnionFind(n)
	var chosen []int
	for _, i := range include {
		if excluded[i] {
			return nil, 0, false
		}
		if !uf.union(edges[i].A, edges[i].B) {
			return nil, 0, false // included edges form a cycle
		}
		chosen = append(chosen, i)
		weight += edges[i].W
	}
	order := make([]int, 0, len(edges))
	for i := range edges {
		if !excluded[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return edges[order[a]].W > edges[order[b]].W })
	for _, i := range order {
		if uf.union(edges[i].A, edges[i].B) {
			chosen = append(chosen, i)
			weight += edges[i].W
		}
	}
	if len(chosen) != n-1 {
		return nil, 0, false
	}
	sort.Ints(chosen)
	return chosen, weight, true
}

// Enumerator streams every maximum-weight spanning tree exactly once.
type Enumerator struct {
	n     int
	edges []Edge
	best  int
	queue []subproblem
	seen  map[string]bool
}

type subproblem struct {
	tree             []int
	weight           int
	include, exclude []int
}

// Enumerate prepares the enumeration of all maximum-weight spanning trees
// of the graph on n nodes. The graph may be disconnected only if n ≤ 1.
func Enumerate(n int, edges []Edge) *Enumerator {
	e := &Enumerator{n: n, edges: edges, seen: map[string]bool{}}
	if tree, w, ok := Max(n, edges, nil, nil); ok {
		e.best = w
		e.queue = append(e.queue, subproblem{tree: tree, weight: w})
	}
	return e
}

// Next returns the edge-index set of the next maximum spanning tree, or
// ok=false when all have been produced.
func (e *Enumerator) Next() ([]int, bool) {
	for len(e.queue) > 0 {
		sp := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		key := treeKey(sp.tree)
		if e.seen[key] {
			continue
		}
		e.seen[key] = true
		// Lawler split over the free edges of this tree.
		inSet := map[int]bool{}
		for _, i := range sp.include {
			inSet[i] = true
		}
		var free []int
		for _, i := range sp.tree {
			if !inSet[i] {
				free = append(free, i)
			}
		}
		include := append([]int(nil), sp.include...)
		for _, f := range free {
			exclude := append(append([]int(nil), sp.exclude...), f)
			if tree, w, ok := Max(e.n, e.edges, include, exclude); ok && w == e.best {
				e.queue = append(e.queue, subproblem{
					tree:    tree,
					weight:  w,
					include: append([]int(nil), include...),
					exclude: exclude,
				})
			}
			include = append(include, f)
		}
		return sp.tree, true
	}
	return nil, false
}

func treeKey(tree []int) string {
	b := make([]byte, 0, 4*len(tree))
	for _, i := range tree {
		b = append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
	}
	return string(b)
}
