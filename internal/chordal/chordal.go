// Package chordal implements the chordal-graph toolkit the paper relies on:
// one maximum cardinality search that tests chordality and finds the
// maximal cliques and minimal separators of a chordal graph, clique trees
// (via maximum-weight spanning trees of the clique graph, per Jordan), and
// the enumeration of all clique trees.
package chordal

import (
	"errors"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/td"
	"repro/internal/vset"
)

// Structure is what one maximum cardinality search finds in a chordal
// graph: its maximal cliques and its nonempty minimal separators, each
// sorted by vset.Compare. Both are sets of the graph alone, so neither
// depends on how the search breaks ties.
type Structure struct {
	Cliques []vset.Set
	Seps    []vset.Set
}

// ErrNotChordal is returned by operations that require a chordal input.
var ErrNotChordal = errors.New("chordal: graph is not chordal")

// Analyze runs one maximum cardinality search over the active vertices of
// g, on bit rows. Let P(v) be the neighbours of v visited before v, so
// |P(v)| is v's weight when it is visited, and let u be the member of
// P(v) visited last.
//   - g is chordal iff P(v) \ {u} ⊆ N(u) for every v (Tarjan–Yannakakis:
//     the reverse visit order is then a perfect elimination order);
//   - {v} ∪ P(v) is a maximal clique iff v is the last vertex visited or
//     the next visit's weight does not rise above v's (Blair–Peyton);
//   - the vertex after such a v opens the next clique, and its P is a
//     minimal separator unless it is empty (a new component). Every
//     minimal separator of a chordal graph arises this way.
//
// Analyze returns ErrNotChordal on non-chordal input.
func Analyze(g *graph.Graph) (Structure, error) {
	n := g.Universe()
	words := (n + 63) / 64
	unvisited := g.Vertices().Slice()
	weight := make([]int, n)
	at := make([]int, n) // visit step of each visited vertex
	buf := make([]uint64, 3*words)
	visited, cur, prev := buf[:words], buf[words:2*words], buf[2*words:]
	var st Structure
	last, lastW := -1, -1
	for step := 0; len(unvisited) > 0; step++ {
		j, w := 0, -1
		for i, x := range unvisited {
			if weight[x] > w {
				j, w = i, weight[x]
			}
		}
		v := unvisited[j]
		unvisited[j] = unvisited[len(unvisited)-1]
		unvisited = unvisited[:len(unvisited)-1]
		adj := g.Neighbors(v).Words()
		u, uAt := -1, -1
		for i := range cur {
			cur[i] = adj[i] & visited[i]
			for m := cur[i]; m != 0; m &= m - 1 {
				if x := i*64 + bits.TrailingZeros64(m); at[x] > uAt {
					u, uAt = x, at[x]
				}
			}
		}
		if u >= 0 {
			nu := g.Neighbors(u).Words()
			for i := range cur {
				rest := cur[i] &^ nu[i]
				if i == u/64 {
					rest &^= 1 << (u % 64)
				}
				if rest != 0 {
					return Structure{}, ErrNotChordal
				}
			}
		}
		if last >= 0 && w <= lastW {
			st.Cliques = append(st.Cliques, setOf(n, prev, last))
			if w > 0 {
				st.Seps = append(st.Seps, setOf(n, cur, -1))
			}
		}
		visited[v/64] |= 1 << (v % 64)
		at[v] = step
		for i := range adj {
			for m := adj[i] &^ visited[i]; m != 0; m &= m - 1 {
				weight[i*64+bits.TrailingZeros64(m)]++
			}
		}
		cur, prev = prev, cur
		last, lastW = v, w
	}
	if last >= 0 {
		st.Cliques = append(st.Cliques, setOf(n, prev, last))
	}
	sortSets(st.Cliques)
	sortSets(st.Seps)
	// A separator opens one clique per tree edge it labels; keep it once.
	k := 0
	for i, s := range st.Seps {
		if i == 0 || !s.Equal(st.Seps[k-1]) {
			st.Seps[k] = s
			k++
		}
	}
	st.Seps = st.Seps[:k]
	return st, nil
}

// setOf returns the set over {0..n-1} whose words are ws, plus v when
// v >= 0.
func setOf(n int, ws []uint64, v int) vset.Set {
	s := vset.New(n)
	copy(s.Words(), ws)
	if v >= 0 {
		s.AddInPlace(v)
	}
	return s
}

func sortSets(ss []vset.Set) { slices.SortFunc(ss, vset.Set.Compare) }

// IsChordal reports whether g is chordal.
func IsChordal(g *graph.Graph) bool {
	_, err := Analyze(g)
	return err == nil
}

// MaximalCliques returns the maximal cliques of a chordal graph g, sorted
// canonically. A chordal graph has fewer maximal cliques than vertices
// (Theorem 2.2), so the result is small.
func MaximalCliques(g *graph.Graph) ([]vset.Set, error) {
	st, err := Analyze(g)
	return st.Cliques, err
}

// CliqueTree returns a clique tree of the analyzed graph: a tree
// decomposition whose bags are exactly its maximal cliques, in their
// sorted order. It is computed as a maximum-weight spanning tree of the
// clique graph with weights |Ci ∩ Cj| (Jordan's characterization).
// Disconnected graphs are supported: zero-weight tree edges stitch the
// forest together, which preserves the junction property because the
// joined cliques are disjoint.
func (st Structure) CliqueTree() *td.Decomposition {
	cliques := st.Cliques
	d := td.New()
	for _, c := range cliques {
		d.AddNode(c)
	}
	k := len(cliques)
	if k <= 1 {
		return d
	}
	// Prim's algorithm on the complete clique graph.
	inTree := make([]bool, k)
	bestW := make([]int, k)
	bestTo := make([]int, k)
	inTree[0] = true
	for j := 1; j < k; j++ {
		bestW[j] = cliques[0].IntersectionLen(cliques[j])
	}
	for added := 1; added < k; added++ {
		pick, w := -1, -2
		for j := 0; j < k; j++ {
			if !inTree[j] && bestW[j] > w {
				pick, w = j, bestW[j]
			}
		}
		inTree[pick] = true
		d.AddEdge(pick, bestTo[pick])
		for j := 0; j < k; j++ {
			if !inTree[j] {
				if iw := cliques[pick].IntersectionLen(cliques[j]); iw > bestW[j] {
					bestW[j] = iw
					bestTo[j] = pick
				}
			}
		}
	}
	return d
}

// FillEdges returns E(h) \ E(g): the fill set of a triangulation h of g.
// Both graphs must share a universe and h must contain every edge of g.
func FillEdges(g, h *graph.Graph) [][2]int {
	var out [][2]int
	for _, e := range h.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			out = append(out, e)
		}
	}
	return out
}

// IsTriangulationOf reports whether h is a triangulation of g: h is
// chordal, has the same active vertices, and E(g) ⊆ E(h).
func IsTriangulationOf(h, g *graph.Graph) bool {
	if !h.Vertices().Equal(g.Vertices()) {
		return false
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e[0], e[1]) {
			return false
		}
	}
	return IsChordal(h)
}
