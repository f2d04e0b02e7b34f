// Package gen generates the workloads of the paper's evaluation (§7.1):
// Erdős–Rényi random graphs, PIC2011-like probabilistic graphical models
// (moralized random DAGs, grids, CSP-style constraint graphs), TPC-H-like
// conjunctive-query Gaifman graphs, and PACE2016-like named graphs.
//
// The paper's real datasets are not redistributable; DESIGN.md documents
// why each generator preserves the behaviour the experiments measure.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/vset"
)

// GNP draws an Erdős–Rényi G(n, p) graph from rng.
func GNP(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ConnectedGNP draws G(n, p) graphs until one is connected (adding a random
// spanning tree after too many failures, which keeps the degree profile
// close to G(n,p) while guaranteeing termination).
func ConnectedGNP(rng *rand.Rand, n int, p float64) *graph.Graph {
	for attempt := 0; attempt < 20; attempt++ {
		g := GNP(rng, n, p)
		if g.IsConnected() {
			return g
		}
	}
	g := GNP(rng, n, p)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		if !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Grid returns the rows×cols grid graph, a classic PIC2011 "Grids" model.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Cycle returns the cycle on n vertices (n ≥ 3).
func Cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// CirculantGraph returns the circulant graph C_n(jumps): vertices 0..n-1
// with i adjacent to i±j (mod n) for every jump j. Jumps are taken modulo
// n; jump 0 and (for even n) the self-paired jump n/2 are handled, and
// duplicate jumps collapse. Circulants are the tunable-symmetry benchmark
// family for orbit-reduced enumeration: every circulant is
// vertex-transitive with the rotations and the reflection giving
// |Aut| ≥ 2n (the dihedral group D_n acts for any jump set; generic jump
// sets achieve exactly 2n, while special ones — e.g. C_n(1..⌊n/2⌋) = K_n,
// or jump sets fixed by a multiplier m with m·J = ±J (mod n) — have
// strictly larger groups).
func CirculantGraph(n int, jumps []int) *graph.Graph {
	g := graph.New(n)
	for _, j := range jumps {
		j = ((j % n) + n) % n
		if j == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+j)%n)
		}
	}
	return g
}

// Path returns the path on n vertices.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// PaperExample returns the running-example graph of Figure 1(a):
// u=0, v=1, v'=2, w1=3, w2=4, w3=5.
func PaperExample() *graph.Graph {
	g := graph.New(6)
	for _, w := range []int{3, 4, 5} {
		g.AddEdge(0, w)
		g.AddEdge(1, w)
	}
	g.AddEdge(1, 2)
	for v, name := range []string{"u", "v", "v'", "w1", "w2", "w3"} {
		g.SetName(v, name)
	}
	return g
}

// MoralizedDAG simulates a PIC2011-style probabilistic graphical model:
// a random DAG over n variables where each node picks up to maxParents
// earlier parents, then moralized (parents of a common child are married
// and edges made undirected). The result is the structure whose junction
// trees probabilistic inference actually uses.
func MoralizedDAG(rng *rand.Rand, n, maxParents int) *graph.Graph {
	g := graph.New(n)
	parents := make([][]int, n)
	for v := 1; v < n; v++ {
		k := rng.Intn(maxParents + 1)
		if k > v {
			k = v
		}
		seen := map[int]bool{}
		for len(parents[v]) < k {
			p := rng.Intn(v)
			if !seen[p] {
				seen[p] = true
				parents[v] = append(parents[v], p)
			}
		}
	}
	for v := 0; v < n; v++ {
		for i, p := range parents[v] {
			if !g.HasEdge(p, v) {
				g.AddEdge(p, v)
			}
			for _, q := range parents[v][i+1:] {
				if !g.HasEdge(p, q) {
					g.AddEdge(p, q) // marry co-parents
				}
			}
		}
	}
	return g
}

// CSPGrid simulates a CSP/segmentation-style constraint graph: a grid with
// extra random "long" constraints, matching the dense-but-structured
// PIC2011 CSP instances.
func CSPGrid(rng *rand.Rand, rows, cols, extra int) *graph.Graph {
	g := Grid(rows, cols)
	n := rows * cols
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TreePlusChords draws a random tree on n vertices and adds up to
// `chords` random extra edges (duplicate draws are tolerated, not
// retried, so sparse graphs terminate). Trees decompose completely
// (every edge is a clique separator); a few chords leave most cut
// vertices intact while creating non-trivial atoms — the
// clique-separated family the atom decomposition is benchmarked and
// oracle-tested on.
func TreePlusChords(rng *rand.Rand, n, chords int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for added := 0; added < chords; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			added++
		} else {
			added++ // tolerate duplicates so sparse graphs terminate
		}
	}
	return g
}

// CliqueChain chains `blobs` dense G(blobSize, p) blobs, consecutive blobs
// sharing a saturated `sepSize`-clique. Each shared clique is a clique
// minimal separator, so the graph decomposes into `blobs` atoms of
// blobSize vertices each — the workload where decomposition turns one
// |MinSep|-exponential instance into many small ones.
func CliqueChain(rng *rand.Rand, blobs, blobSize, sepSize int, p float64) *graph.Graph {
	if sepSize >= blobSize {
		panic("gen: CliqueChain separator must be smaller than the blob")
	}
	stride := blobSize - sepSize
	n := blobSize + (blobs-1)*stride
	g := graph.New(n)
	for b := 0; b < blobs; b++ {
		lo := b * stride
		for i := lo; i < lo+blobSize; i++ {
			for j := i + 1; j < lo+blobSize; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		// Saturate the shared boundary cliques and keep the blob connected
		// through them.
		for i := lo; i < lo+sepSize; i++ {
			for j := i + 1; j < lo+sepSize; j++ {
				if !g.HasEdge(i, j) {
					g.AddEdge(i, j)
				}
			}
			for j := lo + sepSize; j < lo+blobSize; j++ {
				if !g.HasEdge(i, j) && rng.Float64() < 0.8 {
					g.AddEdge(i, j)
				}
			}
		}
	}
	// Guarantee connectivity: link every component of a blob's induced
	// subgraph to the blob's first boundary vertex (isolated-vertex checks
	// alone would miss detached interior pairs at low p).
	for b := 0; b < blobs; b++ {
		lo := b * stride
		blob := vset.New(n)
		for j := lo; j < lo+blobSize; j++ {
			blob.AddInPlace(j)
		}
		for _, comp := range g.ComponentsWithin(blob) {
			if !comp.Contains(lo) {
				g.AddEdge(comp.First(), lo)
			}
		}
	}
	return g
}

// ColdInitCorpus returns graphs shaped like the ranked classes of a
// cold-solve request mix: connected G(n, p) with n 14–18, 4×4 CSP grids,
// clique chains (which decompose into atoms, so core.New builds per-atom
// sub-solvers in parallel) and sparse trees plus chords. The solver
// initialization benchmarks and the PMC candidate count share it.
func ColdInitCorpus() []*graph.Graph {
	rng := rand.New(rand.NewSource(61))
	var out []*graph.Graph
	for i := 0; i < 5; i++ {
		out = append(out, ConnectedGNP(rng, 14+i, 0.2+0.06*float64(i)))
	}
	out = append(out,
		CSPGrid(rng, 4, 4, 2),
		CSPGrid(rng, 4, 4, 4),
		CliqueChain(rng, 4, 8, 2, 0.5),
		CliqueChain(rng, 5, 9, 2, 0.5),
		TreePlusChords(rng, 40, 3),
	)
	return out
}

// Relabel returns a copy of g with its vertices renamed by a random
// permutation drawn from rng — one client of a templated workload. The
// result is isomorphic to g but (almost always) fingerprints differently
// under the label-sensitive graph.Fingerprint, which is exactly what the
// serving tier's canonical keying is benchmarked against.
func Relabel(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	return g.Relabel(rng.Perm(g.Universe()))
}

// IsoCopies returns count independent random relabelings of template —
// the templated workload of PR 8's canonical-caching benchmark: N clients
// each submitting "the same" grid/chain/schema with their own private
// vertex numbering. The template itself is not included.
func IsoCopies(rng *rand.Rand, template *graph.Graph, count int) []*graph.Graph {
	out := make([]*graph.Graph, count)
	for i := range out {
		out[i] = Relabel(rng, template)
	}
	return out
}

// QueryShape names a conjunctive-query join topology.
type QueryShape int

// Join shapes matching the TPC-H query graphs the paper uses.
const (
	ChainQuery QueryShape = iota
	StarQuery
	CycleQuery
	SnowflakeQuery
)

// QueryGaifman builds the Gaifman graph of a synthetic conjunctive query
// with the given shape over `atoms` relations, each pair of joined atoms
// sharing one variable. Vertices are query variables; two variables are
// adjacent iff they co-occur in an atom — the structure that join
// optimizers decompose (TPC-H-like workload).
func QueryGaifman(rng *rand.Rand, shape QueryShape, atoms, varsPerAtom int) *graph.Graph {
	if varsPerAtom < 2 {
		varsPerAtom = 2
	}
	// Each atom has its own fresh variables, then shares one variable with
	// its join partner according to the shape.
	type atom struct{ vars []int }
	as := make([]atom, atoms)
	next := 0
	fresh := func() int { next++; return next - 1 }
	for i := range as {
		for j := 0; j < varsPerAtom; j++ {
			as[i].vars = append(as[i].vars, fresh())
		}
	}
	merge := map[int]int{} // variable aliasing via union-find-ish map
	var find func(x int) int
	find = func(x int) int {
		if r, ok := merge[x]; ok {
			root := find(r)
			merge[x] = root
			return root
		}
		return x
	}
	unify := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			merge[ra] = rb
		}
	}
	link := func(i, j int) {
		unify(as[i].vars[rng.Intn(varsPerAtom)], as[j].vars[rng.Intn(varsPerAtom)])
	}
	switch shape {
	case ChainQuery:
		for i := 0; i+1 < atoms; i++ {
			link(i, i+1)
		}
	case StarQuery:
		for i := 1; i < atoms; i++ {
			link(0, i)
		}
	case CycleQuery:
		for i := 0; i < atoms; i++ {
			link(i, (i+1)%atoms)
		}
	case SnowflakeQuery:
		// A small core star whose leaves are themselves star centers.
		core := atoms / 3
		if core < 1 {
			core = 1
		}
		for i := 1; i < core; i++ {
			link(0, i)
		}
		for i := core; i < atoms; i++ {
			link(rng.Intn(core), i)
		}
	}
	// Renumber representative variables densely.
	id := map[int]int{}
	for i := range as {
		for _, v := range as[i].vars {
			r := find(v)
			if _, ok := id[r]; !ok {
				id[r] = len(id)
			}
		}
	}
	g := graph.New(len(id))
	for i := range as {
		for a := 0; a < varsPerAtom; a++ {
			for b := a + 1; b < varsPerAtom; b++ {
				u, v := id[find(as[i].vars[a])], id[find(as[i].vars[b])]
				if u != v && !g.HasEdge(u, v) {
					g.AddEdge(u, v)
				}
			}
		}
	}
	return g
}

// KTree returns a random k-tree on n vertices (treewidth exactly k for
// n > k), optionally with `removed` random edges deleted to create a
// partial k-tree — a standard treewidth benchmark family.
func KTree(rng *rand.Rand, n, k, removed int) *graph.Graph {
	if n <= k {
		return Complete(n)
	}
	g := Complete(k + 1)
	full := graph.New(n)
	for _, e := range g.Edges() {
		full.AddEdge(e[0], e[1])
	}
	cliques := [][]int{}
	base := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		base = append(base, i)
	}
	cliques = append(cliques, base)
	for v := k + 1; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		sub := append([]int(nil), c...)
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
		sub = sub[:k]
		for _, u := range sub {
			full.AddEdge(u, v)
		}
		cliques = append(cliques, append(append([]int(nil), sub...), v))
	}
	edges := full.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := 0; i < removed && i < len(edges); i++ {
		full.RemoveEdge(edges[i][0], edges[i][1])
	}
	return full
}

// Named returns one of the PACE2016-style named graphs.
// Available names: petersen, grotzsch, queen4, queen5, cube, moebius-kantor,
// octahedron, wagner, bull, house.
func Named(name string) (*graph.Graph, error) {
	adj := map[string][][2]int{
		"petersen": {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
			{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}},
		"grotzsch": {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
			{5, 1}, {5, 4}, {6, 2}, {6, 0}, {7, 3}, {7, 1}, {8, 4}, {8, 2}, {9, 0}, {9, 3},
			{10, 5}, {10, 6}, {10, 7}, {10, 8}, {10, 9}},
		"cube":           {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}, {1, 5}, {2, 6}, {3, 7}},
		"moebius-kantor": {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15}, {15, 0}, {0, 5}, {1, 12}, {2, 7}, {3, 14}, {4, 9}, {6, 11}, {8, 13}, {10, 15}},
		"octahedron":     {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 1}, {5, 2}, {5, 3}, {5, 4}},
		"wagner":         {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}, {1, 5}, {2, 6}, {3, 7}},
		"bull":           {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}},
		"house":          {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}},
	}
	if name == "queen4" || name == "queen5" {
		n := 4
		if name == "queen5" {
			n = 5
		}
		return queen(n), nil
	}
	edges, ok := adj[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown named graph %q", name)
	}
	max := 0
	for _, e := range edges {
		if e[0] > max {
			max = e[0]
		}
		if e[1] > max {
			max = e[1]
		}
	}
	g := graph.New(max + 1)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}

// NamedGraphs lists the names accepted by Named.
func NamedGraphs() []string {
	return []string{"petersen", "grotzsch", "queen4", "queen5", "cube",
		"moebius-kantor", "octahedron", "wagner", "bull", "house"}
}

// queen builds the n×n queen graph from the DIMACS coloring benchmarks.
func queen(n int) *graph.Graph {
	g := graph.New(n * n)
	id := func(r, c int) int { return r*n + c }
	attack := func(r1, c1, r2, c2 int) bool {
		return r1 == r2 || c1 == c2 || r1-c1 == r2-c2 || r1+c1 == r2+c2
	}
	for r1 := 0; r1 < n; r1++ {
		for c1 := 0; c1 < n; c1++ {
			for r2 := 0; r2 < n; r2++ {
				for c2 := 0; c2 < n; c2++ {
					a, b := id(r1, c1), id(r2, c2)
					if a < b && attack(r1, c1, r2, c2) {
						g.AddEdge(a, b)
					}
				}
			}
		}
	}
	return g
}
