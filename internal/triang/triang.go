// Package triang provides black-box minimal triangulators: LB-Triang
// (Berry; Berry, Bordat, Heggernes, Simonet, Villanger 2006 — the
// triangulator the CKK baseline uses, chosen by the paper for its low
// widths and fills) and MCS-M (Berry, Blair, Heggernes, Peyton 2004).
// Both produce a minimal triangulation from an arbitrary vertex ordering.
package triang

import (
	"repro/internal/graph"
	"repro/internal/vset"
)

// LBTriang returns a minimal triangulation of g computed by the LB-Triang
// algorithm under the given vertex order (which must enumerate exactly the
// active vertices; pass nil for ascending order).
//
// For each vertex v in turn, the minimal separators of the *current*
// triangulation that are contained in N_H[v] — the neighborhoods of the
// components of H \ N_H[v] — are saturated. After all vertices are
// processed, H is a minimal triangulation of g.
func LBTriang(g *graph.Graph, order []int) *graph.Graph {
	if order == nil {
		order = g.Vertices().Slice()
	}
	h := g.Clone()
	for _, v := range order {
		// Saturating inside the walk is safe: each N(C) lies in N(v), so
		// the fill edges join vertices outside the walked set V \ N[v],
		// whose adjacency rows and components they leave unchanged.
		outside := h.Vertices().Diff(h.Neighbors(v))
		outside.RemoveInPlace(v)
		h.ForEachComponent(outside, func(_, nc vset.Set) bool {
			h.SaturateInPlace(nc)
			return true
		})
	}
	return h
}

// MCSMOrder returns a minimal triangulation of g computed by MCS-M, a
// maximum-cardinality-search variant: at each step an unnumbered vertex v
// of maximum weight is chosen, and a fill edge {u, v} is added for every
// unnumbered u reachable from v through unnumbered vertices of weight
// strictly smaller than w(u); those u get their weight bumped.
// Ties are broken by smallest vertex number, making the result
// deterministic. It returns also the order in which the vertices were
// numbered. The reverse of that order is a minimal elimination ordering of
// the returned triangulation (Berry, Blair, Heggernes, Peyton 2004) — the
// ordering the clique-minimal-separator decomposition of internal/atoms
// consumes.
func MCSMOrder(g *graph.Graph) (*graph.Graph, []int) {
	n := g.Universe()
	h := g.Clone()
	weight := make([]int, n)
	numbered := vset.New(n)
	order := make([]int, 0, g.NumVertices())
	remaining := g.NumVertices()
	// reach[u] is the smallest achievable "maximum internal weight" over
	// v→u paths through unnumbered vertices; done marks the vertices
	// whose value is final. Both are reset at every numbering step.
	const inf = int(^uint(0) >> 1)
	reach := make([]int, n)
	done := make([]bool, n)
	for step := 0; step < remaining; step++ {
		// Pick unnumbered vertex of maximum weight.
		best, bestW := -1, -1
		g.Vertices().ForEach(func(v int) bool {
			if !numbered.Contains(v) && weight[v] > bestW {
				best, bestW = v, weight[v]
			}
			return true
		})
		v := best
		// u is reached if reach[u] < w(u). A Dijkstra-like relaxation with
		// max-composition computes reach; its final values do not depend
		// on how ties between equal tentative values are broken.
		g.Vertices().ForEach(func(u int) bool {
			reach[u], done[u] = inf, numbered.Contains(u) || u == v
			return true
		})
		g.Neighbors(v).ForEach(func(u int) bool {
			if !done[u] {
				reach[u] = -1 // direct edge: no internal vertices
			}
			return true
		})
		for {
			u, best := -1, inf
			g.Vertices().ForEach(func(w int) bool {
				if !done[w] && reach[w] < best {
					u, best = w, reach[w]
				}
				return true
			})
			if u == -1 {
				break
			}
			done[u] = true
			// u can serve as an internal vertex only if the path may
			// continue through it: the "max internal weight" becomes
			// max(best, weight[u]).
			through := best
			if weight[u] > through {
				through = weight[u]
			}
			g.Neighbors(u).ForEach(func(x int) bool {
				if !done[x] && through < reach[x] {
					reach[x] = through
				}
				return true
			})
		}
		g.Vertices().ForEach(func(u int) bool {
			if !numbered.Contains(u) && u != v && reach[u] < weight[u] {
				weight[u]++
				if !h.HasEdge(u, v) {
					h.AddEdge(u, v)
				}
			}
			return true
		})
		numbered.AddInPlace(v)
		order = append(order, v)
	}
	return h, order
}

// Minimal returns a deterministic minimal triangulation of g (LB-Triang in
// ascending vertex order). It is the black box the CKK baseline uses.
func Minimal(g *graph.Graph) *graph.Graph {
	return LBTriang(g, nil)
}
