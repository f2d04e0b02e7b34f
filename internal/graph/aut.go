package graph

import (
	"encoding/binary"
	"math/big"
	"sort"
)

// This file promotes the automorphisms the canonical-labeling search
// discovers as a by-product (canon.go) into a first-class group object:
// generators, the vertex-orbit partition they induce, and the exact group
// order computed by a textbook Schreier–Sims stabilizer chain (the
// orbit-stabilizer theorem applied level by level: |G| is the product of
// the base-point orbit sizes). The group powers orbit-reduced enumeration
// in internal/core, which closes each new orbit of triangulations under
// the generators and reports the order in its counters.

// AutGroup is (a subgroup of) the automorphism group of a graph, given by
// generators over the graph's universe {0..n-1}. When Exact is true the
// generators provably generate all of Aut(G); when false (the canonical
// search blew its node budget) they generate some subgroup — every
// reported automorphism is still genuine, so consumers degrade to less
// reduction, never to wrong answers.
type AutGroup struct {
	n          int
	generators [][]int
	exact      bool
	orbitRep   []int // vertex -> smallest vertex in its orbit
	order      *big.Int
}

// Automorphisms returns the automorphism group of g under the default
// canonical-search budget. Inactive vertices are fixed by every generator.
func (g *Graph) Automorphisms() *AutGroup {
	return g.AutomorphismsBudget(DefaultCanonBudget)
}

// AutomorphismsBudget is Automorphisms under an explicit search-tree node
// budget (<= 0 selects DefaultCanonBudget). On budget exhaustion the
// generators found so far are returned with Exact() false.
func (g *Graph) AutomorphismsBudget(maxNodes int) *AutGroup {
	_, _, aut, _ := g.CanonicalFormAutBudget(maxNodes)
	return aut
}

// newAutGroup packages generators over {0..n-1}: it feeds them into a
// Schreier–Sims stabilizer chain for the group order, keeping only those
// that enlarge the group generated so far (each at least doubles the
// order, by Lagrange, so at most log2|G| remain), and builds the vertex
// orbit partition by union-find over the kept generators' images. It
// filters gens in place; the caller hands over the slice.
func newAutGroup(n int, gens [][]int, exact bool) *AutGroup {
	chain := newStabChain(n)
	kept := gens[:0]
	for _, p := range gens {
		if chain.extend(0, p) {
			kept = append(kept, p)
		}
	}
	a := &AutGroup{n: n, generators: kept, exact: exact, order: chain.order()}

	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range kept {
		for v, pv := range p {
			ra, rb := find(v), find(pv)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Normalize each orbit's representative to its smallest member, so
	// OrbitRep is a deterministic function of the group, not of the
	// union-find's merge order.
	minOf := make([]int, n)
	for v := range minOf {
		minOf[v] = n
	}
	for v := 0; v < n; v++ {
		r := find(v)
		if v < minOf[r] {
			minOf[r] = v
		}
	}
	a.orbitRep = make([]int, n)
	for v := 0; v < n; v++ {
		a.orbitRep[v] = minOf[find(v)]
	}
	return a
}

// Generators returns the generator permutations (not to be mutated).
func (a *AutGroup) Generators() [][]int { return a.generators }

// Exact reports whether the generators provably generate the full
// automorphism group (false after a canonical-search budget exhaustion).
func (a *AutGroup) Exact() bool { return a.exact }

// Order returns the order of the generated group.
func (a *AutGroup) Order() *big.Int { return new(big.Int).Set(a.order) }

// IsTrivial reports whether the generated group is the identity group.
func (a *AutGroup) IsTrivial() bool { return a.order.Cmp(big.NewInt(1)) == 0 }

// OrbitRep returns the smallest vertex in v's orbit under the group.
func (a *AutGroup) OrbitRep(v int) int { return a.orbitRep[v] }

// SameOrbit reports whether some group element maps u to v.
func (a *AutGroup) SameOrbit(u, v int) bool { return a.orbitRep[u] == a.orbitRep[v] }

// Orbits returns the vertex orbits, each sorted ascending, ordered by
// their smallest member.
func (a *AutGroup) Orbits() [][]int {
	byRep := make(map[int][]int)
	for v := 0; v < a.n; v++ {
		r := a.orbitRep[v]
		byRep[r] = append(byRep[r], v)
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([][]int, len(reps))
	for i, r := range reps {
		out[i] = byRep[r]
	}
	return out
}

// stabChain is a Schreier–Sims stabilizer chain: level i holds a base
// point, the orbit of that point under the generators of the i-th
// pointwise stabilizer, and a transversal (one coset representative per
// orbit point). The group order is the product of the orbit sizes —
// orbit-stabilizer, applied down the chain.
type stabChain struct {
	n      int
	levels []*stabLevel
}

type stabLevel struct {
	point int
	trans map[int][]int // orbit point -> rep u with u[point] = that point
	gens  [][]int
}

func newStabChain(n int) *stabChain { return &stabChain{n: n} }

func (c *stabChain) order() *big.Int {
	out := big.NewInt(1)
	for _, lvl := range c.levels {
		out.Mul(out, big.NewInt(int64(len(lvl.trans))))
	}
	return out
}

// extend adds p as a generator of the level-th stabilizer subgroup (and,
// transitively, sifts the resulting Schreier generators further down),
// keeping the chain strong: after every extend, order() is exact for the
// group generated by everything added so far. It reports whether p
// enlarged that group; a p that already sifts through the chain is a
// member and changes nothing.
func (c *stabChain) extend(level int, p []int) bool {
	if c.sifts(level, p) {
		return false
	}
	if level == len(c.levels) {
		beta := -1
		for v, pv := range p {
			if pv != v {
				beta = v
				break
			}
		}
		id := make([]int, c.n)
		for v := range id {
			id[v] = v
		}
		c.levels = append(c.levels, &stabLevel{
			point: beta,
			trans: map[int][]int{beta: id},
		})
	}
	lvl := c.levels[level]
	lvl.gens = append(lvl.gens, p)

	// Re-close the orbit of the base point under all of this level's
	// generators, then sift every Schreier generator into the next level
	// (Schreier's lemma: they generate the point stabilizer).
	id := make([]int, c.n)
	for v := range id {
		id[v] = v
	}
	trans := map[int][]int{lvl.point: id}
	queue := []int{lvl.point}
	for len(queue) > 0 {
		gamma := queue[0]
		queue = queue[1:]
		tg := trans[gamma]
		for _, s := range lvl.gens {
			delta := s[gamma]
			if _, ok := trans[delta]; !ok {
				trans[delta] = permProduct(s, tg)
				queue = append(queue, delta)
			}
		}
	}
	lvl.trans = trans
	for gamma, tg := range trans {
		for _, s := range lvl.gens {
			u := permProduct(permInverse(trans[s[gamma]]), permProduct(s, tg))
			c.extend(level+1, u)
		}
	}
	return true
}

// sifts reports whether p is already a member of the group at the given
// chain level (it strips to the identity through the transversals).
func (c *stabChain) sifts(level int, p []int) bool {
	for i := level; i < len(c.levels); i++ {
		if permIsIdentity(p) {
			return true
		}
		lvl := c.levels[i]
		t, ok := lvl.trans[p[lvl.point]]
		if !ok {
			return false
		}
		p = permProduct(permInverse(t), p)
	}
	return permIsIdentity(p)
}

// permProduct returns a∘b (apply b, then a).
func permProduct(a, b []int) []int {
	out := make([]int, len(a))
	for v := range out {
		out[v] = a[b[v]]
	}
	return out
}

func permInverse(p []int) []int {
	out := make([]int, len(p))
	for v, pv := range p {
		out[pv] = v
	}
	return out
}

func permIsIdentity(p []int) bool {
	for v, pv := range p {
		if pv != v {
			return false
		}
	}
	return true
}

// CanonicalKeyCells computes an invariant key of g under the subgroup of
// vertex permutations that preserve the given ordered partition of the
// active vertices: two graphs (over equal universes, with cells of equal
// sizes in the same order) get equal keys iff some cell-preserving
// isomorphism maps one to the other. It also returns the group of
// cell-preserving automorphisms discovered by the search. The orbit-mode
// oracle in internal/core's tests encodes "same triangulation up to
// Aut(G)" as such a colored-graph canonical form via a gadget layer,
// independently of the generator closure orbit mode itself runs.
//
// Every active vertex must appear in exactly one cell; empty cells are
// permitted and ignored. When exact is false (budget exhaustion) the key
// is label-sensitive and must not be compared across labelings; aut still
// holds the genuine automorphisms found so far.
func (g *Graph) CanonicalKeyCells(cells [][]int, maxNodes int) (key string, aut *AutGroup, exact bool) {
	if maxNodes <= 0 {
		maxNodes = DefaultCanonBudget
	}
	verts := g.verts.Slice()
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	idxCells := make([][]int, 0, len(cells))
	sizes := make([]int, 0, len(cells))
	covered := 0
	for _, c := range cells {
		if len(c) == 0 {
			continue
		}
		ic := make([]int, len(c))
		for j, v := range c {
			i, ok := idx[v]
			if !ok {
				panic("graph: CanonicalKeyCells cell contains an inactive vertex")
			}
			ic[j] = i
		}
		covered += len(c)
		idxCells = append(idxCells, ic)
		sizes = append(sizes, len(c))
	}
	if covered != len(verts) {
		panic("graph: CanonicalKeyCells cells must partition the active vertices")
	}
	cs := newCanonSearch(g, verts, maxNodes)
	if len(verts) > 0 {
		cs.explore(idxCells, nil)
	} else {
		cs.haveBest = true
	}
	aut = cs.autGroup(g.n)
	if cs.stopped || !cs.haveBest {
		return "", aut, false
	}
	// The key embeds the cell-size signature: encodings are only
	// comparable between searches over the same partition shape.
	buf := make([]byte, 0, 8*(len(sizes)+len(cs.best))+8)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(len(verts)))
	buf = append(buf, w[:]...)
	for _, s := range sizes {
		binary.LittleEndian.PutUint64(w[:], uint64(s))
		buf = append(buf, w[:]...)
	}
	for _, word := range cs.best {
		binary.LittleEndian.PutUint64(w[:], word)
		buf = append(buf, w[:]...)
	}
	return string(buf), aut, true
}
