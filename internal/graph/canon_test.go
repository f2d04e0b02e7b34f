package graph_test

// External test package: the oracle needs internal/bruteforce and
// internal/gen, both of which import internal/graph.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// maskGraph builds the graph on n vertices whose edge set is the given
// bitmask over the n(n-1)/2 vertex pairs in lexicographic order.
func maskGraph(n int, mask int) *graph.Graph {
	g := graph.New(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<bit) != 0 {
				g.AddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// checkCanonical verifies the structural contract of one CanonicalForm
// call: perm is a bijection, canon is exactly g relabeled by it, and the
// search completed within budget.
func checkCanonical(t *testing.T, g *graph.Graph, label string) (hash string) {
	t.Helper()
	canon, perm, exact := g.CanonicalForm()
	if !exact {
		t.Fatalf("%s: canonical search blew the default budget", label)
	}
	seen := make([]bool, g.Universe())
	for _, p := range perm {
		if p < 0 || p >= g.Universe() || seen[p] {
			t.Fatalf("%s: perm %v is not a bijection", label, perm)
		}
		seen[p] = true
	}
	if want := g.Relabel(perm).Fingerprint(); canon.Fingerprint() != want {
		t.Fatalf("%s: canon is not g relabeled by perm", label)
	}
	if canon.NumEdges() != g.NumEdges() || canon.NumVertices() != g.NumVertices() {
		t.Fatalf("%s: canon changed the graph: %v vs %v", label, canon, g)
	}
	for _, e := range g.Edges() {
		if !canon.HasEdge(perm[e[0]], perm[e[1]]) {
			t.Fatalf("%s: edge {%d,%d} lost under relabeling", label, e[0], e[1])
		}
	}
	return canon.Fingerprint()
}

// TestCanonicalFormOracleAllSmallGraphs proves, exhaustively on EVERY
// graph with up to 6 vertices, that the canonical fingerprint is exactly
// an isomorphism-class key: two graphs share a canonical fingerprint iff
// they share the exhaustive-permutation bruteforce code (which tries all
// n! relabelings). Sharded across GOMAXPROCS goroutines.
func TestCanonicalFormOracleAllSmallGraphs(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	for n := 1; n <= maxN; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			pairs := n * (n - 1) / 2
			total := 1 << pairs
			workers := runtime.GOMAXPROCS(0)
			if workers > total {
				workers = total
			}
			// code→hash and hash→code must both be functions: together
			// that is "equal hash ⟺ isomorphic".
			var mu sync.Mutex
			codeToHash := make(map[uint64]string)
			hashToCode := make(map[string]uint64)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mask := w; mask < total; mask += workers {
						if t.Failed() {
							return
						}
						g := maskGraph(n, mask)
						hash := checkCanonical(t, g, fmt.Sprintf("n=%d mask=%d", n, mask))
						code := bruteforce.CanonicalCode(g)
						mu.Lock()
						if prev, ok := codeToHash[code]; ok && prev != hash {
							mu.Unlock()
							t.Errorf("n=%d mask=%d: isomorphic graphs (code %d) got different canonical hashes", n, mask, code)
							return
						} else if !ok {
							codeToHash[code] = hash
						}
						if prev, ok := hashToCode[hash]; ok && prev != code {
							mu.Unlock()
							t.Errorf("n=%d mask=%d: non-isomorphic graphs share canonical hash %s", n, mask, hash)
							return
						} else if !ok {
							hashToCode[hash] = code
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestCanonicalFormRandomMedium extends the oracle to n = 7 and 8: for
// random graphs, every random relabeling must produce the same canonical
// hash as the original, and the bruteforce code must agree on the class.
func TestCanonicalFormRandomMedium(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{7, 8} {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			for trial := 0; trial < trials; trial++ {
				g := gen.GNP(rng, n, p)
				label := fmt.Sprintf("gnp n=%d p=%v trial=%d", n, p, trial)
				hash := checkCanonical(t, g, label)
				code := bruteforce.CanonicalCode(g)
				for r := 0; r < 4; r++ {
					h := gen.Relabel(rng, g)
					rhash := checkCanonical(t, h, label+" relabeled")
					if rhash != hash {
						t.Fatalf("%s: relabeling changed the canonical hash", label)
					}
					if bruteforce.CanonicalCode(h) != code {
						t.Fatalf("%s: relabeling changed the bruteforce code (relabel bug)", label)
					}
				}
			}
		}
	}
}

// TestCanonicalFormSymmetricFamilies spot-checks families with large
// automorphism groups — where branch pruning is what keeps the search
// from going factorial — at sizes well past the exhaustive sweep.
func TestCanonicalFormSymmetricFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K12", gen.Complete(12)},
		{"C16", gen.Cycle(16)},
		{"grid5x5", gen.Grid(5, 5)},
		{"path20", gen.Path(20)},
		{"petersen", mustNamed(t, "petersen")},
		{"queen5", mustNamed(t, "queen5")},
	}
	for _, tc := range cases {
		hash := checkCanonical(t, tc.g, tc.name)
		for r := 0; r < 6; r++ {
			if got := checkCanonical(t, gen.Relabel(rng, tc.g), tc.name+" relabeled"); got != hash {
				t.Fatalf("%s: relabeling changed the canonical hash", tc.name)
			}
		}
	}
}

// TestCanonicalFormPinnedFingerprints pins the canonical fingerprints of
// a few named graphs, each also submitted under a fresh relabeling. They
// are the serving tier's cache keys, so a change to the search or to how
// its result is packaged must not move them.
func TestCanonicalFormPinnedFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"C9", gen.Cycle(9), "512307a1cf501865a4c5145a06d8737691a3616da15b300410e4b1a121daa55f"},
		{"grid3x4", gen.Grid(3, 4), "f2f917817c426348957eff8f836a91057a741a4e7571d20a37b51d98f4e8f2b5"},
		{"C10(1,3)", gen.CirculantGraph(10, []int{1, 3}), "2a23b1505040420097b6357746123519ba76e43fb664a87ab0fcdfe8104af418"},
		{"petersen", mustNamed(t, "petersen"), "280e10b9eb613ee01729798a61341bf9110732550678dfbd9942bd72b47a1d71"},
		{"TreePlusChords(40,3)", gen.TreePlusChords(rand.New(rand.NewSource(1)), 40, 3), "de6b53746770c6a04386132fbfe8a1960fed84f375f0f94453d6b8586174fb8c"},
		{"paper", gen.PaperExample(), "d6ea310e067b63f666091ed5b448040f8ec4b321ed4098024d0db1937b43f643"},
	}
	for _, tc := range cases {
		for _, g := range []*graph.Graph{tc.g, gen.Relabel(rng, tc.g)} {
			if got := checkCanonical(t, g, tc.name); got != tc.want {
				t.Fatalf("%s: canonical fingerprint %s, pinned %s", tc.name, got, tc.want)
			}
			canon, _, _, exact := g.CanonicalFormAutBudget(0)
			if !exact || canon.Fingerprint() != tc.want {
				t.Fatalf("%s: CanonicalFormAutBudget fingerprint %s (exact %v), pinned %s", tc.name, canon.Fingerprint(), exact, tc.want)
			}
		}
	}
}

func mustNamed(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := gen.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCanonicalFormInactiveVertices checks that graphs whose active sets
// differ only by labeling canonicalize together, and that inactive
// vertices land on the tail labels.
func TestCanonicalFormInactiveVertices(t *testing.T) {
	a := graph.New(6).InducedSubgraph(vset.Of(6, 0, 1, 2))
	b := graph.New(6).InducedSubgraph(vset.Of(6, 3, 4, 5))
	// Both are three isolated active vertices over universe 6.
	ca, pa, _ := a.CanonicalForm()
	cb, _, _ := b.CanonicalForm()
	if ca.Fingerprint() != cb.Fingerprint() {
		t.Fatalf("isomorphic active structures hash differently")
	}
	for v := 0; v < 6; v++ {
		active := a.Vertices().Contains(v)
		if active && pa[v] >= a.NumVertices() {
			t.Fatalf("active vertex %d mapped to tail label %d", v, pa[v])
		}
		if !active && pa[v] < a.NumVertices() {
			t.Fatalf("inactive vertex %d mapped to active label %d", v, pa[v])
		}
	}
}

// TestCanonicalFormBudgetFallback: with a budget too small to finish, the
// result must still be a deterministic valid relabeling and exact=false.
func TestCanonicalFormBudgetFallback(t *testing.T) {
	g := gen.Grid(4, 4)
	c1, p1, exact := g.CanonicalFormBudget(2)
	if exact {
		t.Fatalf("a 2-node budget cannot canonicalize a 4x4 grid exactly")
	}
	c2, p2, _ := g.CanonicalFormBudget(2)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatalf("budget fallback is not deterministic")
	}
	for v := range p1 {
		if p1[v] != p2[v] {
			t.Fatalf("budget fallback permutation is not deterministic")
		}
	}
	if got := g.Relabel(p1).Fingerprint(); got != c1.Fingerprint() {
		t.Fatalf("fallback canon is not g relabeled by perm")
	}
}

// TestRelabelRoundTrip: relabeling by a permutation and then by its
// inverse is the identity, including names.
func TestRelabelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := gen.GNP(rng, 9, 0.4)
	g.SetName(3, "three")
	perm := rng.Perm(9)
	inv := make([]int, 9)
	for v, p := range perm {
		inv[p] = v
	}
	back := g.Relabel(perm).Relabel(inv)
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatalf("relabel round trip changed the graph")
	}
	if back.Name(3) != "three" {
		t.Fatalf("relabel round trip lost names: %q", back.Name(3))
	}
}
