package graph

import "sort"

// refineReference is the refinement the label-array refine replaced,
// kept as its reference: cells as per-split slices, neighbor counts from
// a k-wide adjacency matrix, and each split cell grouped through a map.
// Splitters are snapshots, so a cell that later splits still counts
// correctly; sub-cells are ordered by ascending neighbor count.
func refineReference(adj [][]bool, cells [][]int) [][]int {
	k := len(adj)
	queue := make([][]int, len(cells))
	copy(queue, cells)
	cnt := make([]int, k)
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for i := range cnt {
			cnt[i] = 0
		}
		for _, u := range w {
			row := adj[u]
			for v := 0; v < k; v++ {
				if row[v] {
					cnt[v]++
				}
			}
		}
		out := make([][]int, 0, len(cells))
		for _, c := range cells {
			if len(c) == 1 {
				out = append(out, c)
				continue
			}
			uniform := true
			for _, v := range c[1:] {
				if cnt[v] != cnt[c[0]] {
					uniform = false
					break
				}
			}
			if uniform {
				out = append(out, c)
				continue
			}
			groups := make(map[int][]int)
			var keys []int
			for _, v := range c {
				if _, ok := groups[cnt[v]]; !ok {
					keys = append(keys, cnt[v])
				}
				groups[cnt[v]] = append(groups[cnt[v]], v)
			}
			sort.Ints(keys)
			for _, key := range keys {
				out = append(out, groups[key])
				queue = append(queue, groups[key])
			}
		}
		cells = out
	}
	return cells
}

// adjMatrix is the search's adjacency as the k×k matrix the reference
// refinement reads.
func adjMatrix(cs *canonSearch) [][]bool {
	adj := make([][]bool, cs.k)
	for i, row := range cs.nbrs {
		adj[i] = make([]bool, cs.k)
		for _, j := range row {
			adj[i][j] = true
		}
	}
	return adj
}

// CanonSearchOutcome runs the canonical search on g under the node
// budget, with refine or (reference) with refineReference, and returns
// its permutation, its generators over active indices and whether it
// finished within budget.
func CanonSearchOutcome(g *Graph, maxNodes int, reference bool) (perm []int, gens [][]int, exact bool) {
	cs := newCanonSearch(g, g.verts.Slice(), maxNodes)
	if reference {
		adj := adjMatrix(cs)
		cs.refineWith = func(cells [][]int) [][]int { return refineReference(adj, cells) }
	}
	perm = cs.run()
	return perm, cs.gens, !cs.stopped
}

// RefineBoth refines a partition of g's active indices with refine and
// with refineReference.
func RefineBoth(g *Graph, cells [][]int) (got, want [][]int) {
	cs := newCanonSearch(g, g.verts.Slice(), 0)
	return cs.refine(cells), refineReference(adjMatrix(cs), cells)
}
