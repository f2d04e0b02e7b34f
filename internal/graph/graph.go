// Package graph implements the undirected-graph substrate that every
// algorithm in this repository builds on: adjacency-set graphs over a fixed
// vertex universe, connected components, induced subgraphs, saturation, and
// block realizations (Bouchitté–Todinca's R(S,C)).
//
// A key design choice is that induced subgraphs and realizations keep the
// universe of the original graph: a subgraph of a graph over {0..n-1} is
// again a graph over {0..n-1} whose active vertex set is smaller. Vertex
// sets therefore remain directly comparable across a graph, its blocks and
// its realizations, which is what the MinTriang dynamic program needs.
package graph

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/vset"
)

// Graph is an undirected graph over the universe {0..n-1} with an active
// vertex set. Self loops are not representable; parallel edges collapse.
type Graph struct {
	n     int
	verts vset.Set
	adj   []vset.Set
	names []string
}

// New returns a graph whose active vertices are {0..n-1} and with no edges.
func New(n int) *Graph {
	g := &Graph{
		n:     n,
		verts: vset.Full(n),
		adj:   make([]vset.Set, n),
	}
	for v := range g.adj {
		g.adj[v] = vset.New(n)
	}
	return g
}

// Universe returns the universe size n (not the number of active vertices).
func (g *Graph) Universe() int { return g.n }

// Vertices returns the active vertex set. The caller must not mutate it.
func (g *Graph) Vertices() vset.Set { return g.verts }

// NumVertices returns the number of active vertices.
func (g *Graph) NumVertices() int { return g.verts.Len() }

// NumEdges returns the number of edges between active vertices.
func (g *Graph) NumEdges() int {
	total := 0
	g.verts.ForEach(func(v int) bool {
		total += g.adj[v].Len()
		return true
	})
	return total / 2
}

// SetName assigns a display name to vertex v (used by the file readers).
func (g *Graph) SetName(v int, name string) {
	if g.names == nil {
		g.names = make([]string, g.n)
	}
	g.names[v] = name
}

// Name returns the display name of v, defaulting to its number.
func (g *Graph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// AddEdge inserts the undirected edge {u, v}. Adding a self loop or an edge
// touching an inactive vertex panics, as both indicate a logic error.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self loop")
	}
	if !g.verts.Contains(u) || !g.verts.Contains(v) {
		panic("graph: edge endpoint not active")
	}
	g.adj[u].AddInPlace(v)
	g.adj[v].AddInPlace(u)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.adj[u].RemoveInPlace(v)
	g.adj[v].RemoveInPlace(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	return u != v && g.adj[u].Contains(v)
}

// Neighbors returns the open neighborhood N(v). The caller must not mutate it.
func (g *Graph) Neighbors(v int) vset.Set { return g.adj[v] }

// Degree returns |N(v)|.
func (g *Graph) Degree(v int) int { return g.adj[v].Len() }

// NeighborsOfSet returns N(C) = (∪_{v∈C} N(v)) \ C over active vertices.
func (g *Graph) NeighborsOfSet(c vset.Set) vset.Set {
	out := vset.New(g.n)
	c.ForEach(func(v int) bool {
		out.UnionInPlace(g.adj[v])
		return true
	})
	out.DiffInPlace(c)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, verts: g.verts.Clone(), adj: make([]vset.Set, g.n), names: g.names}
	for v := range g.adj {
		c.adj[v] = g.adj[v].Clone()
	}
	return c
}

// InducedSubgraph returns G[U], the subgraph induced by U ∩ V(G),
// over the same universe.
func (g *Graph) InducedSubgraph(u vset.Set) *Graph {
	active := g.verts.Intersect(u)
	c := &Graph{n: g.n, verts: active, adj: make([]vset.Set, g.n), names: g.names}
	for v := 0; v < g.n; v++ {
		if active.Contains(v) {
			c.adj[v] = g.adj[v].Intersect(active)
		} else {
			c.adj[v] = vset.New(g.n)
		}
	}
	return c
}

// Saturate returns a copy of g in which U has been made a clique
// (G ∪ K_U in the paper's notation).
func (g *Graph) Saturate(u vset.Set) *Graph {
	c := g.Clone()
	c.SaturateInPlace(u)
	return c
}

// SaturateInPlace makes U a clique of g. It works on the adjacency words
// and allocates nothing.
func (g *Graph) SaturateInPlace(u vset.Set) {
	if u.Universe() != g.n {
		panic("graph: saturating a set over another universe")
	}
	uw, vw := u.Words(), g.verts.Words()
	for wi := range uw {
		for x := uw[wi] & vw[wi]; x != 0; x &= x - 1 {
			v := wi*64 + bits.TrailingZeros64(x)
			row := g.adj[v].Words()
			for i := range row {
				row[i] |= uw[i] & vw[i]
			}
			row[wi] &^= 1 << (v % 64)
		}
	}
}

// Realization returns R(S, C) = G[S ∪ C] ∪ K_S, the realization of the
// block (S, C).
func (g *Graph) Realization(s, c vset.Set) *Graph {
	r := g.InducedSubgraph(s.Union(c))
	r.SaturateInPlace(s)
	return r
}

// IsClique reports whether U is a clique of g (every two active members
// adjacent).
func (g *Graph) IsClique(u vset.Set) bool {
	ok := true
	u.ForEach(func(v int) bool {
		rest := u.Diff(g.adj[v])
		rest.RemoveInPlace(v)
		if !rest.IsEmpty() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ForEachComponent calls fn for each connected component C of
// G[within ∩ V(G)], in order of smallest vertex, together with its
// neighbourhood N(C) in G, and stops early when fn returns false.
//
// The walk grows a component word-parallel: it ORs the adjacency rows of
// each newly reached vertex into N, and the next vertices to reach are
// N's words masked by what is left of within. Its three scratch sets are
// allocated once per call. c and nc are views of two of them: they are
// valid only during that call of fn, which must neither mutate nor
// retain them (Clone what must outlive it). The walk reads only the
// adjacency rows of vertices in within, so fn may change edges among
// vertices outside within.
func (g *Graph) ForEachComponent(within vset.Set, fn func(c, nc vset.Set) bool) {
	rest := within.Intersect(g.verts)
	comp, nbr := vset.New(g.n), vset.New(g.n)
	for start := rest.First(); start >= 0; start = rest.First() {
		g.grow(start, rest, comp, nbr)
		if !fn(comp, nbr) {
			return
		}
	}
}

// grow overwrites comp with the component of G[rest ∪ {start}] containing
// start and nbr with N(comp), and removes comp from rest. All three sets
// belong to the caller alone, which is what lets grow rewrite their words.
func (g *Graph) grow(start int, rest, comp, nbr vset.Set) {
	cw, nw, rw := comp.Words(), nbr.Words(), rest.Words()
	clear(cw)
	copy(nw, g.adj[start].Words())
	cw[start/64] |= 1 << uint(start%64)
	rw[start/64] &^= 1 << uint(start%64)
	for grown := true; grown; {
		grown = false
		for i := range rw {
			f := nw[i] & rw[i]
			if f == 0 {
				continue
			}
			grown = true
			cw[i] |= f
			rw[i] &^= f
			for ; f != 0; f &= f - 1 {
				for j, a := range g.adj[i*64+bits.TrailingZeros64(f)].Words() {
					nw[j] |= a
				}
			}
		}
	}
	for i := range nw {
		nw[i] &^= cw[i]
	}
}

// ComponentContaining returns the connected component of within that
// contains start, as a vertex set. within must contain start.
func (g *Graph) ComponentContaining(start int, within vset.Set) vset.Set {
	comp := vset.New(g.n)
	g.grow(start, within.Clone(), comp, vset.New(g.n))
	return comp
}

// ComponentsWithin returns the connected components of G[within ∩ V(G)],
// in order of smallest vertex.
func (g *Graph) ComponentsWithin(within vset.Set) []vset.Set {
	var comps []vset.Set
	g.ForEachComponent(within, func(c, _ vset.Set) bool {
		comps = append(comps, c.Clone())
		return true
	})
	return comps
}

// ComponentsAvoiding returns the U-components of g: the connected
// components of G \ U.
func (g *Graph) ComponentsAvoiding(u vset.Set) []vset.Set {
	return g.ComponentsWithin(g.verts.Diff(u))
}

// IsConnected reports whether the active graph is connected.
// The empty graph counts as connected.
func (g *Graph) IsConnected() bool {
	count := 0
	g.ForEachComponent(g.verts, func(_, _ vset.Set) bool {
		count++
		return count < 2
	})
	return count <= 1
}

// Edges returns all edges {u, v} with u < v as pairs.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	g.verts.ForEach(func(u int) bool {
		g.adj[u].ForEach(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
		return true
	})
	return out
}

// EdgeSetKey returns a canonical key identifying the edge set of g,
// suitable for deduplicating graphs over the same universe.
func (g *Graph) EdgeSetKey() string {
	var b strings.Builder
	for v := 0; v < g.n; v++ {
		b.WriteString(g.adj[v].Key())
	}
	return b.String()
}

// MissingPairsWithin returns the number of non-adjacent pairs inside U.
func (g *Graph) MissingPairsWithin(u vset.Set) int {
	members := u.Intersect(g.verts)
	k := members.Len()
	pairs := k * (k - 1) / 2
	present := 0
	members.ForEach(func(v int) bool {
		present += g.adj[v].IntersectionLen(members)
		return true
	})
	return pairs - present/2
}

// String renders a compact description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d over universe %d)", g.NumVertices(), g.NumEdges(), g.n)
}
