package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vset"
)

// paperExample builds the running-example graph G of Figure 1(a):
// vertices u=0, v=1, v'=2, w1=3, w2=4, w3=5; u and v each adjacent to all
// wi, and v adjacent to v'.
func paperExample() *Graph {
	g := New(6)
	for _, w := range []int{3, 4, 5} {
		g.AddEdge(0, w)
		g.AddEdge(1, w)
	}
	g.AddEdge(1, 2)
	return g
}

func TestBasicGraph(t *testing.T) {
	g := paperExample()
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 3) || g.HasEdge(0, 1) || g.HasEdge(3, 3) {
		t.Fatalf("edge membership wrong")
	}
	if got := g.Neighbors(1).Slice(); !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("Neighbors(v) = %v", got)
	}
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatalf("RemoveEdge failed")
	}
}

func TestNeighborsOfSet(t *testing.T) {
	g := paperExample()
	ws := vset.Of(6, 3, 4, 5)
	if got := g.NeighborsOfSet(ws).Slice(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("N(W) = %v", got)
	}
	if got := g.NeighborsOfSet(vset.Of(6, 2)).Slice(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("N({v'}) = %v", got)
	}
}

func TestComponents(t *testing.T) {
	g := paperExample()
	// Removing S1 = {w1,w2,w3} separates {u} from {v, v'}.
	comps := g.ComponentsAvoiding(vset.Of(6, 3, 4, 5))
	if len(comps) != 2 {
		t.Fatalf("components avoiding S1: got %d, want 2", len(comps))
	}
	sizes := []int{comps[0].Len(), comps[1].Len()}
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{1, 2}) {
		t.Fatalf("component sizes = %v", sizes)
	}
	// Removing S2 = {u,v} separates each wi and v'.
	comps = g.ComponentsAvoiding(vset.Of(6, 0, 1))
	if len(comps) != 4 {
		t.Fatalf("components avoiding S2: got %d, want 4", len(comps))
	}
	if !g.IsConnected() {
		t.Fatalf("paper graph should be connected")
	}
	if New(0).IsConnected() != true {
		t.Fatalf("empty graph should count as connected")
	}
}

func TestInducedSubgraphAndRealization(t *testing.T) {
	g := paperExample()
	sub := g.InducedSubgraph(vset.Of(6, 0, 3, 4))
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced subgraph wrong: %v", sub)
	}
	if sub.Universe() != 6 {
		t.Fatalf("universe changed: %d", sub.Universe())
	}
	// Realization of block (S1, {u}): S1 saturated.
	r := g.Realization(vset.Of(6, 3, 4, 5), vset.Of(6, 0))
	if r.NumVertices() != 4 {
		t.Fatalf("realization vertices = %d", r.NumVertices())
	}
	if !r.HasEdge(3, 4) || !r.HasEdge(3, 5) || !r.HasEdge(4, 5) {
		t.Fatalf("realization separator not saturated")
	}
	if !r.HasEdge(0, 3) {
		t.Fatalf("realization lost original edge")
	}
	if r.HasEdge(1, 3) {
		t.Fatalf("realization kept out-of-block edge")
	}
	// The original graph must be untouched.
	if g.HasEdge(3, 4) {
		t.Fatalf("realization mutated the source graph")
	}
}

func TestSaturateAndClique(t *testing.T) {
	g := paperExample()
	u := vset.Of(6, 0, 1)
	if g.IsClique(u) {
		t.Fatalf("{u,v} should not be a clique yet")
	}
	h := g.Saturate(u)
	if !h.IsClique(u) {
		t.Fatalf("saturated set is not a clique")
	}
	if g.HasEdge(0, 1) {
		t.Fatalf("Saturate mutated receiver")
	}
	if !g.IsClique(vset.Of(6, 0, 3)) || !g.IsClique(vset.Of(6, 2)) || !g.IsClique(vset.New(6)) {
		t.Fatalf("clique checks on edges/singletons/empty failed")
	}
}

func TestMissingPairsWithin(t *testing.T) {
	g := paperExample()
	if got := g.MissingPairsWithin(vset.Of(6, 3, 4, 5)); got != 3 {
		t.Fatalf("missing pairs in W = %d, want 3", got)
	}
	if got := g.MissingPairsWithin(vset.Of(6, 0, 3)); got != 0 {
		t.Fatalf("missing pairs on an edge = %d, want 0", got)
	}
	if got := g.MissingPairsWithin(vset.Of(6, 0, 1, 3)); got != 1 {
		t.Fatalf("missing pairs in {u,v,w1} = %d, want 1", got)
	}
}

func TestUnionAndClone(t *testing.T) {
	g := paperExample()
	c := g.Clone()
	c.AddEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatalf("clone shares storage")
	}
}

func TestEdgesAndKey(t *testing.T) {
	g := paperExample()
	edges := g.Edges()
	if len(edges) != 7 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
	if g.EdgeSetKey() != paperExample().EdgeSetKey() {
		t.Fatalf("identical graphs have different keys")
	}
	if g.EdgeSetKey() == g.Saturate(vset.Of(6, 0, 1)).EdgeSetKey() {
		t.Fatalf("different graphs share a key")
	}
}

func TestReadEdgeList(t *testing.T) {
	src := "# comment\na b\nb c\n\nc a\n"
	g, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %v", g)
	}
	if g.Name(0) != "a" || g.Name(2) != "c" {
		t.Fatalf("names not preserved: %q %q", g.Name(0), g.Name(2))
	}
	if _, err := ReadEdgeList(strings.NewReader("a b c\n")); err == nil {
		t.Fatalf("malformed line accepted")
	}
}

func TestReadDIMACS(t *testing.T) {
	src := "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
	g, err := ReadDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 || !g.HasEdge(0, 1) {
		t.Fatalf("parsed %v", g)
	}
	for _, bad := range []string{"e 1 2\n", "p edge 2 1\ne 1 5\n", "p edge x 1\n", "q what\n"} {
		if _, err := ReadDIMACS(strings.NewReader(bad)); err == nil {
			t.Errorf("bad input %q accepted", bad)
		}
	}
}

func TestPACERoundTrip(t *testing.T) {
	src := "c treewidth instance\np tw 5 4\n1 2\n2 3\n3 4\n4 5\n"
	g, err := ReadPACE(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("parsed %v", g)
	}
	var buf bytes.Buffer
	if err := WritePACE(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadPACE(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeSetKey() != g2.EdgeSetKey() {
		t.Fatalf("PACE round trip changed the graph")
	}
}

func TestReadFormat(t *testing.T) {
	cases := []struct{ format, src string }{
		{"edges", "a b\nb c\n"},
		{"dimacs", "p edge 3 2\ne 1 2\ne 2 3\n"},
		{"pace", "p tw 3 2\n1 2\n2 3\n"},
		{"graph6", ">>graph6<<Bg\nDhc\n"},
	}
	for _, tc := range cases {
		g, err := ReadFormat(strings.NewReader(tc.src), tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if g.NumVertices() != 3 || g.NumEdges() != 2 {
			t.Fatalf("%s: read %v, want the path on 3 vertices", tc.format, g)
		}
	}
	if _, err := ReadFormat(strings.NewReader("\n"), "graph6"); err == nil {
		t.Fatalf("graph6 input without a graph accepted")
	}
	if _, err := ReadFormat(strings.NewReader("p tw 3 2\n1 2\n2 3\n"), "gr"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("unknown format: err = %v", err)
	}
}

// randomGraph draws G(n, p)-style graphs for property tests.
func randomGraph(rng *rand.Rand, maxN int) *Graph {
	n := 1 + rng.Intn(maxN)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestQuickComponentsPartition(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30)
		n := g.Universe()
		u := vset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				u.AddInPlace(v)
			}
		}
		comps := g.ComponentsAvoiding(u)
		// Components partition V \ U.
		covered := vset.New(n)
		for _, c := range comps {
			if c.Intersects(covered) || c.Intersects(u) || c.IsEmpty() {
				return false
			}
			covered.UnionInPlace(c)
			// No edges leave the component except into U.
			out := g.NeighborsOfSet(c)
			if !out.SubsetOf(u) {
				return false
			}
		}
		return covered.Equal(g.Vertices().Diff(u))
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickRealizationInvariants(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20)
		n := g.Universe()
		s := vset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				s.AddInPlace(v)
			}
		}
		comps := g.ComponentsAvoiding(s)
		if len(comps) == 0 {
			return true
		}
		c := comps[rng.Intn(len(comps))]
		r := g.Realization(s, c)
		if !r.Vertices().Equal(s.Union(c)) {
			return false
		}
		if !r.IsClique(s) {
			return false
		}
		// Every original edge inside S∪C survives.
		for _, e := range g.InducedSubgraph(s.Union(c)).Edges() {
			if !r.HasEdge(e[0], e[1]) {
				return false
			}
		}
		// Only S-internal pairs may be added.
		for _, e := range r.Edges() {
			if !g.HasEdge(e[0], e[1]) && !(s.Contains(e[0]) && s.Contains(e[1])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}
