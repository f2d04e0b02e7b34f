package graph

import (
	"slices"

	"repro/internal/vset"
)

// This file implements canonical labeling: a relabeling of the graph that
// is (budget permitting) invariant under isomorphism, so that the
// Fingerprint of the relabeled graph can key caches up to isomorphism.
//
// The algorithm is the classic individualization–refinement search
// (McKay's nauty family, scaled down): iterate color refinement to an
// equitable partition, branch on the vertices of the first smallest
// non-singleton cell, and take the lexicographically smallest adjacency
// encoding over the leaves of the search tree. Discovered automorphisms
// (two leaves with equal encodings) prune branches that a known symmetry
// maps onto an already-explored sibling, which keeps highly symmetric
// graphs (cliques, grids, circulants) polynomial in practice. A node
// budget bounds the search on adversarial inputs: past it the best leaf
// found so far is returned, which is still a deterministic valid
// relabeling of the input — merely not isomorphism-invariant — so cache
// keys built from it degrade to label-sensitive, never to incorrect.

// DefaultCanonBudget is the search-tree node budget of CanonicalForm.
// Individualization–refinement on the templated workloads a serving tier
// sees (grids, chains, replicated schemas) explores a few dozen nodes;
// the budget exists to bound pathological strongly-regular-like inputs.
const DefaultCanonBudget = 1 << 16

// canonMaxGens caps the stored automorphism generators; pruning power
// saturates long before this, and each generator costs O(k) per branch.
const canonMaxGens = 256

// CanonicalForm returns a canonical relabeling of g: a copy canon of g
// relabeled by perm (vertex v of g is vertex perm[v] of canon), such that
// — whenever exact is true — isomorphic graphs over equal universes yield
// byte-identical canon graphs. canon.Fingerprint() is therefore an
// isomorphism-class cache key. Active vertices map to labels
// 0..NumVertices()-1; inactive vertices keep their relative order on the
// remaining labels. exact is false when the search budget was exhausted
// first; perm is then still a valid, deterministic relabeling of this
// labeled graph (equal inputs get equal outputs), so keys built from it
// merely lose isomorphism-level deduplication, never correctness.
func (g *Graph) CanonicalForm() (canon *Graph, perm []int, exact bool) {
	return g.CanonicalFormBudget(DefaultCanonBudget)
}

// CanonicalFormBudget is CanonicalForm under an explicit search-tree node
// budget (<= 0 selects DefaultCanonBudget). It does not assemble the
// automorphism group from the generators the search discovers; callers
// that need it use CanonicalFormAutBudget.
func (g *Graph) CanonicalFormBudget(maxNodes int) (canon *Graph, perm []int, exact bool) {
	cs, perm := g.runCanonSearch(maxNodes)
	return g.Relabel(perm), perm, !cs.stopped
}

// CanonicalFormAutBudget is CanonicalFormBudget surfacing, in addition,
// the automorphism group assembled from the generators the search
// discovered (two leaves with equal encodings yield one). On budget
// exhaustion the generators found before the stop are NOT discarded: aut
// then holds the (possibly proper) subgroup they generate, with
// aut.Exact() false — still genuine automorphisms, still usable for
// orbit reduction, merely without the guarantee that they generate all
// of Aut(G).
func (g *Graph) CanonicalFormAutBudget(maxNodes int) (canon *Graph, perm []int, aut *AutGroup, exact bool) {
	cs, perm := g.runCanonSearch(maxNodes)
	return g.Relabel(perm), perm, cs.autGroup(g.n), !cs.stopped
}

// runCanonSearch runs the individualization–refinement search under the
// node budget (<= 0 selects DefaultCanonBudget) and returns its final
// state with the canonical permutation it found.
func (g *Graph) runCanonSearch(maxNodes int) (*canonSearch, []int) {
	if maxNodes <= 0 {
		maxNodes = DefaultCanonBudget
	}
	cs := newCanonSearch(g, g.verts.Slice(), maxNodes)
	return cs, cs.run()
}

// run explores the search tree from the unit partition and returns the
// canonical permutation over the universe labels.
func (cs *canonSearch) run() []int {
	g, verts, k := cs.g, cs.verts, cs.k
	if k > 0 {
		all := make([]int, k)
		for i := range all {
			all[i] = i
		}
		cs.explore([][]int{all}, nil)
	} else {
		cs.haveBest = true
		cs.bestPos = nil
	}

	perm := make([]int, g.n)
	if !cs.haveBest {
		// Budget exhausted before the first leaf: identity on the actives.
		for i, v := range verts {
			perm[v] = i
		}
	} else {
		for i, v := range verts {
			perm[v] = cs.bestPos[i]
		}
	}
	next := k
	for v := 0; v < g.n; v++ {
		if !g.verts.Contains(v) {
			perm[v] = next
			next++
		}
	}
	return perm
}

// newCanonSearch builds the search state over g's active vertices listed
// in verts (the active-index space of the whole search).
func newCanonSearch(g *Graph, verts []int, maxNodes int) *canonSearch {
	k := len(verts)
	cs := &canonSearch{g: g, verts: verts, k: k, budget: maxNodes}
	idx := make([]int, g.n)
	for i, v := range verts {
		idx[v] = i
	}
	cs.nbrs = make([][]int, k)
	for i, u := range verts {
		row := make([]int, 0, g.adj[u].Len())
		g.adj[u].ForEach(func(v int) bool {
			if g.HasEdge(u, v) && g.verts.Contains(v) {
				row = append(row, idx[v])
			}
			return true
		})
		cs.nbrs[i] = row
	}
	return cs
}

// autGroup translates the discovered generators from active indices to
// universe labels (identity on inactive vertices) and packages them.
func (cs *canonSearch) autGroup(n int) *AutGroup {
	gens := make([][]int, 0, len(cs.gens))
	for _, gamma := range cs.gens {
		p := make([]int, n)
		for v := range p {
			p[v] = v
		}
		for i, j := range gamma {
			p[cs.verts[i]] = cs.verts[j]
		}
		gens = append(gens, p)
	}
	return newAutGroup(n, gens, !cs.stopped)
}

// canonSearch is the state of one individualization–refinement search.
// Vertices are addressed by active index (position in verts) throughout;
// only the final permutation translates back to graph labels.
type canonSearch struct {
	g     *Graph
	verts []int
	k     int
	nbrs  [][]int // adjacency lists over active indices

	// refineWith, when set, replaces refine: a test hook that runs the
	// search over a reference refinement.
	refineWith func(cells [][]int) [][]int

	budget  int
	nodes   int
	stopped bool

	haveBest  bool
	best      []uint64 // row-major adjacency bit matrix of the best leaf
	bestPos   []int    // active index -> canonical position at the best leaf
	bestOrder []int    // canonical position -> active index at the best leaf
	gens      [][]int  // discovered automorphisms over active indices

	// The first leaf is kept alongside the best one purely for
	// automorphism discovery (McKay's dual-target scheme): the best leaf
	// moves as smaller encodings are found, so automorphisms relating
	// early equal-encoding leaves to a superseded best would be lost —
	// and with them, potentially, generators of Aut(G). Comparing every
	// leaf against the immovable first leaf as well closes that gap.
	haveFirst  bool
	first      []uint64
	firstOrder []int
}

// explore refines cells to an equitable partition, then either records the
// leaf (discrete partition) or branches on the target cell.
func (cs *canonSearch) explore(cells [][]int, prefix []int) {
	if cs.stopped {
		return
	}
	cs.nodes++
	if cs.nodes > cs.budget {
		cs.stopped = true
		return
	}
	if cs.refineWith != nil {
		cells = cs.refineWith(cells)
	} else {
		cells = cs.refine(cells)
	}
	// Target cell: the first smallest non-singleton — a function of the
	// (isomorphism-invariant) equitable partition, as canonicity requires.
	target := -1
	for i, c := range cells {
		if len(c) > 1 && (target < 0 || len(c) < len(cells[target])) {
			target = i
		}
	}
	if target < 0 {
		cs.leaf(cells)
		return
	}
	var tried []int
	for _, v := range cells[target] {
		// Skip v when a known automorphism fixing the individualized
		// prefix pointwise maps an already-explored sibling onto it: the
		// two subtrees produce identical leaf-encoding sets.
		if cs.prunable(v, tried, prefix) {
			continue
		}
		child := make([][]int, 0, len(cells)+1)
		for i, c := range cells {
			if i != target {
				child = append(child, c)
				continue
			}
			rest := make([]int, 0, len(c)-1)
			for _, u := range c {
				if u != v {
					rest = append(rest, u)
				}
			}
			child = append(child, []int{v}, rest)
		}
		cs.explore(child, append(prefix, v))
		if cs.stopped {
			return
		}
		tried = append(tried, v)
	}
}

// refine drives cells to the coarsest equitable partition refining them:
// every vertex of a cell has the same number of neighbors in every cell.
// The cells are consecutive ranges of one label array, and a split only
// permutes the vertices inside its cell, so a queued [start, end)
// splitter keeps the vertex set it had when queued: a cell that later
// splits still counts correctly (its parts' counts sum to the
// splitter's). A cell splits by a stable sort on neighbor count into
// parts of ascending count, every part is queued in that order, and the
// result is therefore an isomorphism-invariant function of the input
// partition.
func (cs *canonSearch) refine(cells [][]int) [][]int {
	k := cs.k
	buf := make([]int, 3*k)
	lab := buf[0:0:k]     // the vertices, cell by cell
	end := buf[k : 2*k]   // end[p]: the end of the cell starting at p
	cnt := buf[2*k : 3*k] // neighbors in the current splitter
	// A split into m parts adds m-1 cells and queues m ≤ 2(m-1) ranges.
	queue := make([][2]int, 0, 2*k-len(cells))
	for _, c := range cells {
		start := len(lab)
		lab = append(lab, c...)
		end[start] = len(lab)
		queue = append(queue, [2]int{start, len(lab)})
	}
	byCount := func(a, b int) int { return cnt[a] - cnt[b] }
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		for i := range cnt {
			cnt[i] = 0
		}
		for _, u := range lab[w[0]:w[1]] {
			for _, v := range cs.nbrs[u] {
				cnt[v]++
			}
		}
		for p := 0; p < k; {
			e := end[p]
			c := lab[p:e]
			uniform := true
			for _, v := range c[1:] {
				if cnt[v] != cnt[c[0]] {
					uniform = false
					break
				}
			}
			if !uniform {
				slices.SortStableFunc(c, byCount)
				start := p
				for i := p + 1; i <= e; i++ {
					if i == e || cnt[lab[i]] != cnt[lab[i-1]] {
						end[start] = i
						queue = append(queue, [2]int{start, i})
						start = i
					}
				}
			}
			p = e
		}
	}
	n := 0
	for p := 0; p < k; p = end[p] {
		n++
	}
	out := make([][]int, 0, n)
	for p := 0; p < k; p = end[p] {
		out = append(out, lab[p:end[p]:end[p]])
	}
	return out
}

// leaf scores a discrete partition against the best one seen. A tie
// yields an automorphism (the permutation mapping this leaf's labeling
// onto the best leaf's), which feeds the branch pruning.
func (cs *canonSearch) leaf(cells [][]int) {
	pos := make([]int, cs.k)
	order := make([]int, cs.k)
	for i, c := range cells {
		pos[c[0]] = i
		order[i] = c[0]
	}
	w := (cs.k + 63) / 64
	enc := make([]uint64, cs.k*w)
	for i, u := range order {
		base := i * w
		for _, v := range cs.nbrs[u] {
			j := pos[v]
			enc[base+j/64] |= 1 << uint(j%64)
		}
	}
	if !cs.haveFirst {
		cs.haveFirst = true
		cs.first = enc
		cs.firstOrder = order
	} else if len(cs.gens) < canonMaxGens && equalWords(enc, cs.first) {
		// Equal encodings mean the two labelings present the same matrix:
		// γ(v) = firstOrder[pos(v)] satisfies adj[γu][γv] = adj[u][v].
		gamma := make([]int, cs.k)
		for v := 0; v < cs.k; v++ {
			gamma[v] = cs.firstOrder[pos[v]]
		}
		cs.gens = append(cs.gens, gamma)
	}
	if !cs.haveBest || lessWords(enc, cs.best) {
		cs.haveBest = true
		cs.best = enc
		cs.bestPos = pos
		cs.bestOrder = order
		return
	}
	if len(cs.gens) < canonMaxGens && equalWords(enc, cs.best) && !equalWords(enc, cs.first) {
		// Ties against a best leaf that is not the first leaf contribute
		// their own automorphisms (the first-leaf comparison above missed
		// them), which feed the branch pruning.
		gamma := make([]int, cs.k)
		for v := 0; v < cs.k; v++ {
			gamma[v] = cs.bestOrder[pos[v]]
		}
		cs.gens = append(cs.gens, gamma)
	}
}

// prunable reports whether some known automorphism that fixes prefix
// pointwise maps an already-tried sibling onto v. Only prefix-fixing
// generators may prune: they generate a subgroup of the stabilizer of
// the current search node, so the identification is sound.
func (cs *canonSearch) prunable(v int, tried, prefix []int) bool {
	if len(tried) == 0 || len(cs.gens) == 0 {
		return false
	}
	parent := make([]int, cs.k)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, gamma := range cs.gens {
		fixes := true
		for _, p := range prefix {
			if gamma[p] != p {
				fixes = false
				break
			}
		}
		if !fixes {
			continue
		}
		for x := 0; x < cs.k; x++ {
			union(x, gamma[x])
		}
	}
	rv := find(v)
	for _, u := range tried {
		if find(u) == rv {
			return true
		}
	}
	return false
}

func lessWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Relabel returns the graph with every vertex v renamed to perm[v]. perm
// must be a bijection on the universe {0..n-1}; the active set, adjacency
// and display names map through it.
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.n {
		panic("graph: Relabel permutation has wrong length")
	}
	seen := make([]bool, g.n)
	for _, p := range perm {
		if p < 0 || p >= g.n || seen[p] {
			panic("graph: Relabel permutation is not a bijection")
		}
		seen[p] = true
	}
	c := &Graph{n: g.n, verts: g.verts.Relabel(perm), adj: make([]vset.Set, g.n)}
	for v := range c.adj {
		c.adj[v] = vset.New(g.n)
	}
	g.verts.ForEach(func(u int) bool {
		c.adj[perm[u]] = g.adj[u].Relabel(perm)
		return true
	})
	if g.names != nil {
		c.names = make([]string, g.n)
		for v, name := range g.names {
			c.names[perm[v]] = name
		}
	}
	return c
}
