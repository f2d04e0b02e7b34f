// Package td defines tree decompositions: trees of bags together with the
// validity checks from the paper's preliminaries (vertex cover, edge cover,
// junction-tree property), widths and fill, and the clique-tree test that
// characterizes proper tree decompositions.
package td

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/vset"
)

// Decomposition is a tree decomposition: node i carries bag Bags[i], and
// Adj is the tree adjacency (undirected, by node index). A decomposition
// with zero nodes is valid only for the empty graph.
type Decomposition struct {
	Bags []vset.Set
	Adj  [][]int
}

// New returns an empty decomposition ready for AddNode/AddEdge.
func New() *Decomposition {
	return &Decomposition{}
}

// AddNode appends a node with the given bag and returns its index.
func (d *Decomposition) AddNode(bag vset.Set) int {
	d.Bags = append(d.Bags, bag)
	d.Adj = append(d.Adj, nil)
	return len(d.Bags) - 1
}

// AddEdge connects tree nodes a and b.
func (d *Decomposition) AddEdge(a, b int) {
	if a == b {
		panic("td: self loop in decomposition tree")
	}
	d.Adj[a] = append(d.Adj[a], b)
	d.Adj[b] = append(d.Adj[b], a)
}

// NumNodes returns the number of tree nodes.
func (d *Decomposition) NumNodes() int { return len(d.Bags) }

// Width returns the width of the decomposition: max bag size minus one.
// The empty decomposition has width -1.
func (d *Decomposition) Width() int {
	w := -1
	for _, b := range d.Bags {
		if b.Len()-1 > w {
			w = b.Len() - 1
		}
	}
	return w
}

// FillIn returns the number of distinct vertex pairs that co-occur in some
// bag but are not edges of g — the edges added by saturating all bags.
func (d *Decomposition) FillIn(g *graph.Graph) int {
	seen := map[[2]int]bool{}
	fill := 0
	for _, b := range d.Bags {
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

// Saturation returns the graph H_T obtained from g by saturating every bag.
func (d *Decomposition) Saturation(g *graph.Graph) *graph.Graph {
	h := g.Clone()
	for _, b := range d.Bags {
		h.SaturateInPlace(b)
	}
	return h
}

// CoveredVertices returns the union of all bags.
func (d *Decomposition) CoveredVertices(universe int) vset.Set {
	all := vset.New(universe)
	for _, b := range d.Bags {
		all.UnionInPlace(b)
	}
	return all
}

// Validate checks that d is a tree decomposition of g: the tree is in fact
// a tree (connected, acyclic), every vertex and edge of g is covered, and
// the junction-tree property holds.
func (d *Decomposition) Validate(g *graph.Graph) error {
	n := len(d.Bags)
	if n == 0 {
		if g.NumVertices() == 0 {
			return nil
		}
		return errors.New("td: empty decomposition for nonempty graph")
	}
	// Tree shape: connected with n-1 edges.
	edgeCount := 0
	for _, nb := range d.Adj {
		edgeCount += len(nb)
	}
	edgeCount /= 2
	if edgeCount != n-1 {
		return fmt.Errorf("td: tree has %d edges, want %d", edgeCount, n-1)
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range d.Adj[x] {
			if !visited[y] {
				visited[y] = true
				count++
				stack = append(stack, y)
			}
		}
	}
	if count != n {
		return errors.New("td: decomposition tree is disconnected")
	}
	// Vertex and edge cover.
	covered := d.CoveredVertices(g.Universe())
	if !g.Vertices().SubsetOf(covered) {
		return fmt.Errorf("td: vertices %v not covered", g.Vertices().Diff(covered))
	}
	for _, e := range g.Edges() {
		ok := false
		for _, b := range d.Bags {
			if b.Contains(e[0]) && b.Contains(e[1]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("td: edge {%d,%d} not covered", e[0], e[1])
		}
	}
	// Junction-tree property: nodes containing each vertex form a subtree.
	var junctionErr error
	g.Vertices().ForEach(func(v int) bool {
		var nodes []int
		for i, b := range d.Bags {
			if b.Contains(v) {
				nodes = append(nodes, i)
			}
		}
		if len(nodes) == 0 {
			return true
		}
		inSet := make(map[int]bool, len(nodes))
		for _, x := range nodes {
			inSet[x] = true
		}
		seen := map[int]bool{nodes[0]: true}
		stack := []int{nodes[0]}
		reach := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range d.Adj[x] {
				if inSet[y] && !seen[y] {
					seen[y] = true
					reach++
					stack = append(stack, y)
				}
			}
		}
		if reach != len(nodes) {
			junctionErr = fmt.Errorf("td: junction property violated for vertex %d", v)
			return false
		}
		return true
	})
	return junctionErr
}

// IsCliqueTreeOf reports whether d is a clique tree of h: its bags are
// exactly the maximal cliques of h, pairwise distinct, and d is a valid
// tree decomposition of h.
func (d *Decomposition) IsCliqueTreeOf(h *graph.Graph, maxCliques []vset.Set) bool {
	if d.Validate(h) != nil {
		return false
	}
	if len(d.Bags) != len(maxCliques) {
		return false
	}
	want := map[string]bool{}
	for _, c := range maxCliques {
		want[c.Key()] = true
	}
	seen := map[string]bool{}
	for _, b := range d.Bags {
		k := b.Key()
		if !want[k] || seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// Clone returns a deep copy of d.
func (d *Decomposition) Clone() *Decomposition {
	c := &Decomposition{
		Bags: make([]vset.Set, len(d.Bags)),
		Adj:  make([][]int, len(d.Adj)),
	}
	for i, b := range d.Bags {
		c.Bags[i] = b.Clone()
	}
	for i, nb := range d.Adj {
		c.Adj[i] = append([]int(nil), nb...)
	}
	return c
}

// String renders the decomposition as a list of bags and tree edges.
func (d *Decomposition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "td[%d nodes, width %d]", len(d.Bags), d.Width())
	for i, bag := range d.Bags {
		fmt.Fprintf(&b, " %d:%s", i, bag)
	}
	return b.String()
}
