package mst

import (
	"math/rand"
	"sort"
	"testing"
)

func completeEdges(n int, w func(a, b int) int) []Edge {
	var edges []Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, Edge{A: a, B: b, W: w(a, b)})
		}
	}
	return edges
}

func TestMaxBasic(t *testing.T) {
	// Triangle with weights 3, 2, 1: MST keeps 3 and 2.
	edges := []Edge{{0, 1, 3}, {1, 2, 2}, {0, 2, 1}}
	tree, w, ok := Max(3, edges, nil, nil)
	if !ok || w != 5 || len(tree) != 2 {
		t.Fatalf("tree=%v w=%d ok=%v", tree, w, ok)
	}
}

func TestMaxWithConstraints(t *testing.T) {
	edges := []Edge{{0, 1, 3}, {1, 2, 2}, {0, 2, 1}}
	// Force the weight-1 edge.
	tree, w, ok := Max(3, edges, []int{2}, nil)
	if !ok || w != 4 {
		t.Fatalf("include: tree=%v w=%d ok=%v", tree, w, ok)
	}
	// Exclude the two heavy edges: no spanning tree remains.
	if _, _, ok := Max(3, edges, nil, []int{0, 1}); ok {
		t.Fatalf("exclude should make it infeasible")
	}
	// Including a cycle fails.
	if _, _, ok := Max(3, edges, []int{0, 1, 2}, nil); ok {
		t.Fatalf("cyclic include should fail")
	}
	// Conflicting include+exclude fails.
	if _, _, ok := Max(3, edges, []int{0}, []int{0}); ok {
		t.Fatalf("include∩exclude should fail")
	}
}

func TestMaxDisconnected(t *testing.T) {
	if _, _, ok := Max(3, []Edge{{0, 1, 1}}, nil, nil); ok {
		t.Fatalf("disconnected graph has no spanning tree")
	}
	if _, _, ok := Max(0, nil, nil, nil); !ok {
		t.Fatalf("empty graph should trivially succeed")
	}
}

func TestEnumerateCayley(t *testing.T) {
	// Equal weights on K_n: all n^(n-2) spanning trees are maximum.
	for n, want := range map[int]int{2: 1, 3: 3, 4: 16, 5: 125} {
		got := countAll(n, completeEdges(n, func(_, _ int) int { return 1 }))
		if got != want {
			t.Errorf("K%d: %d maximum spanning trees, want %d (Cayley)", n, got, want)
		}
	}
}

func TestEnumerateUnique(t *testing.T) {
	// Distinct weights: unique maximum spanning tree.
	edges := completeEdges(5, func(a, b int) int { return 10*a + b })
	if got := countAll(5, edges); got != 1 {
		t.Fatalf("distinct weights: %d trees, want 1", got)
	}
}

// bruteForceMaxTrees counts maximum spanning trees by trying every subset
// of n-1 edges.
func bruteForceMaxTrees(n int, edges []Edge) int {
	if n <= 1 {
		return 1
	}
	best := -1
	count := 0
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == n-1 {
			uf := newUnionFind(n)
			w := 0
			for _, i := range chosen {
				if !uf.union(edges[i].A, edges[i].B) {
					return
				}
				w += edges[i].W
			}
			if w > best {
				best, count = w, 1
			} else if w == best {
				count++
			}
			return
		}
		for i := start; i < len(edges); i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	return count
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		edges := completeEdges(n, func(_, _ int) int { return rng.Intn(3) })
		got := countAll(n, edges)
		want := bruteForceMaxTrees(n, edges)
		if got != want {
			t.Fatalf("trial %d (n=%d): enumerated %d, brute force %d, edges=%v",
				trial, n, got, want, edges)
		}
	}
}

func TestEnumerateTreesAreValidAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := completeEdges(6, func(_, _ int) int { return rng.Intn(2) })
	e := Enumerate(6, edges)
	seen := map[string]bool{}
	bestWeight := -1
	for {
		tree, ok := e.Next()
		if !ok {
			break
		}
		if len(tree) != 5 {
			t.Fatalf("tree has %d edges", len(tree))
		}
		uf := newUnionFind(6)
		w := 0
		for _, i := range tree {
			if !uf.union(edges[i].A, edges[i].B) {
				t.Fatalf("emitted edge set has a cycle")
			}
			w += edges[i].W
		}
		if bestWeight == -1 {
			bestWeight = w
		}
		if w != bestWeight {
			t.Fatalf("non-maximum tree emitted: %d vs %d", w, bestWeight)
		}
		key := treeKey(tree)
		if seen[key] {
			t.Fatalf("duplicate tree emitted")
		}
		seen[key] = true
	}
	if len(seen) == 0 {
		t.Fatalf("no trees emitted")
	}
}

func TestTreeKeyDistinct(t *testing.T) {
	a, b := []int{1, 2, 3}, []int{1, 2, 4}
	if treeKey(a) == treeKey(b) {
		t.Fatalf("key collision")
	}
	sort.Ints(a)
	if treeKey(a) != treeKey([]int{1, 2, 3}) {
		t.Fatalf("key not canonical")
	}
}

// countAll drains an enumeration and returns the number of maximum
// spanning trees.
func countAll(n int, edges []Edge) int {
	e := Enumerate(n, edges)
	count := 0
	for {
		if _, ok := e.Next(); !ok {
			return count
		}
		count++
	}
}
