package chordal

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/td"
	"repro/internal/triang"
	"repro/internal/vset"
)

// The functions below are the chordal toolkit Analyze replaced, kept as
// its reference: a maximum cardinality search, a second pass testing the
// reverse visit order as a perfect elimination order, candidate cliques
// {v} ∪ later-neighbours(v) filtered to the maximal ones, Prim's tree
// over them, and the separators as the tree's distinct adhesions.

func referenceMCSOrder(g *graph.Graph) []int {
	n := g.Universe()
	weight := make([]int, n)
	visited := vset.New(n)
	remaining := g.NumVertices()
	visit := make([]int, 0, remaining)
	for len(visit) < remaining {
		best, bestW := -1, -1
		g.Vertices().ForEach(func(v int) bool {
			if !visited.Contains(v) && weight[v] > bestW {
				best, bestW = v, weight[v]
			}
			return true
		})
		visited.AddInPlace(best)
		visit = append(visit, best)
		g.Neighbors(best).ForEach(func(w int) bool {
			if !visited.Contains(w) {
				weight[w]++
			}
			return true
		})
	}
	for i, j := 0, len(visit)-1; i < j; i, j = i+1, j-1 {
		visit[i], visit[j] = visit[j], visit[i]
	}
	return visit
}

func referenceIsPEO(g *graph.Graph, order []int) bool {
	pos := make([]int, g.Universe())
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		later := vset.New(g.Universe())
		g.Neighbors(v).ForEach(func(w int) bool {
			if pos[w] > i {
				later.AddInPlace(w)
			}
			return true
		})
		if later.IsEmpty() {
			continue
		}
		u, uPos := -1, len(order)
		later.ForEach(func(w int) bool {
			if pos[w] < uPos {
				u, uPos = w, pos[w]
			}
			return true
		})
		if !later.Remove(u).SubsetOf(g.Neighbors(u)) {
			return false
		}
	}
	return true
}

func referenceMaximalCliques(g *graph.Graph) ([]vset.Set, bool) {
	order := referenceMCSOrder(g)
	if !referenceIsPEO(g, order) {
		return nil, false
	}
	pos := make([]int, g.Universe())
	for i, v := range order {
		pos[v] = i
	}
	var candidates []vset.Set
	seen := map[string]bool{}
	for i, v := range order {
		c := vset.Of(g.Universe(), v)
		g.Neighbors(v).ForEach(func(w int) bool {
			if pos[w] > i {
				c.AddInPlace(w)
			}
			return true
		})
		if !seen[c.Key()] {
			seen[c.Key()] = true
			candidates = append(candidates, c)
		}
	}
	var out []vset.Set
	for i, c := range candidates {
		maximal := true
		for j, d := range candidates {
			if i != j && c.ProperSubsetOf(d) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, true
}

func referenceCliqueTree(cliques []vset.Set) *td.Decomposition {
	d := td.New()
	for _, c := range cliques {
		d.AddNode(c)
	}
	k := len(cliques)
	if k <= 1 {
		return d
	}
	inTree := make([]bool, k)
	bestW := make([]int, k)
	bestTo := make([]int, k)
	for i := range bestW {
		bestW[i] = -1
		bestTo[i] = -1
	}
	inTree[0] = true
	for j := 1; j < k; j++ {
		bestW[j] = cliques[0].IntersectionLen(cliques[j])
		bestTo[j] = 0
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

// referenceSeps returns the distinct nonempty adhesions of d, sorted.
func referenceSeps(d *td.Decomposition) []vset.Set {
	seen := map[string]vset.Set{}
	for x, nb := range d.Adj {
		for _, y := range nb {
			if x < y {
				if s := d.Bags[x].Intersect(d.Bags[y]); !s.IsEmpty() {
					seen[s.Key()] = s
				}
			}
		}
	}
	var out []vset.Set
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func sameSets(a, b []vset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sameTree(a, b *td.Decomposition) bool {
	if !sameSets(a.Bags, b.Bags) {
		return false
	}
	for i := range a.Adj {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			return false
		}
		for j := range a.Adj[i] {
			if a.Adj[i][j] != b.Adj[i][j] {
				return false
			}
		}
	}
	return true
}

// TestAnalyzeMatchesReference compares the one-pass search with the
// toolkit it replaced on LB-Triang outputs of seeded G(n, p), n = 20–40,
// and on the non-chordal inputs themselves, plus a few graphs over more
// than one word. The clique tree must be the same tree, adjacency order
// included, since Result.Tree is built from it.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var graphs []*graph.Graph
	for trial := 0; trial < 60; trial++ {
		g := gen.GNP(rng, 20+rng.Intn(21), 0.1+0.3*rng.Float64())
		graphs = append(graphs, g, triang.Minimal(g))
	}
	for _, n := range []int{65, 90, 130} {
		g := gen.GNP(rng, n, 0.04)
		graphs = append(graphs, g, triang.Minimal(g), gen.KTree(rng, n, 3, 0))
	}
	chordalSeen := 0
	for gi, g := range graphs {
		want, ok := referenceMaximalCliques(g)
		st, err := Analyze(g)
		if ok != (err == nil) {
			t.Fatalf("graph %d: Analyze err = %v, reference chordal = %v", gi, err, ok)
		}
		if !ok {
			continue
		}
		chordalSeen++
		if !sameSets(st.Cliques, want) {
			t.Fatalf("graph %d: cliques %v, reference %v", gi, st.Cliques, want)
		}
		tree := st.CliqueTree()
		ref := referenceCliqueTree(want)
		if !sameTree(tree, ref) {
			t.Fatalf("graph %d: the clique tree changed", gi)
		}
		if seps := referenceSeps(ref); !sameSets(st.Seps, seps) {
			t.Fatalf("graph %d: separators %v, reference %v", gi, st.Seps, seps)
		}
	}
	if chordalSeen < len(graphs)/2 {
		t.Fatalf("only %d of %d graphs chordal", chordalSeen, len(graphs))
	}
}
