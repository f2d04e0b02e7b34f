package minsep

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/vset"
)

func TestPaperExampleSeparators(t *testing.T) {
	// MinSep(G) = {S1, S2, S3} = {{w1,w2,w3}, {u,v}, {v}} (Example 2.4).
	g := gen.PaperExample()
	seps := All(g)
	want := map[string]bool{
		vset.Of(6, 3, 4, 5).Key(): true,
		vset.Of(6, 0, 1).Key():    true,
		vset.Of(6, 1).Key():       true,
	}
	if len(seps) != 3 {
		t.Fatalf("got %d separators: %v", len(seps), seps)
	}
	for _, s := range seps {
		if !want[s.Key()] {
			t.Errorf("unexpected separator %v", s)
		}
	}
}

func TestPaperExampleCrossing(t *testing.T) {
	g := gen.PaperExample()
	s1 := vset.Of(6, 3, 4, 5)
	s2 := vset.Of(6, 0, 1)
	s3 := vset.Of(6, 1)
	if !Crosses(g, s1, s2) || !Crosses(g, s2, s1) {
		t.Errorf("S1 and S2 should cross (Example 2.4)")
	}
	if Crosses(g, s1, s3) || Crosses(g, s3, s1) {
		t.Errorf("S1 and S3 should be parallel")
	}
	if Crosses(g, s2, s3) || Crosses(g, s3, s2) {
		t.Errorf("S2 and S3 should be parallel")
	}
	if !pairwiseParallel(g, []vset.Set{s1, s3}) {
		t.Errorf("pairwiseParallel({S1,S3}) = false")
	}
	if pairwiseParallel(g, []vset.Set{s1, s2, s3}) {
		t.Errorf("pairwiseParallel should detect the S1/S2 crossing")
	}
	all := All(g)
	if !isMaximalParallel(g, []vset.Set{s1, s3}, all) {
		t.Errorf("{S1,S3} should be maximal parallel")
	}
	if isMaximalParallel(g, []vset.Set{s3}, all) {
		t.Errorf("{S3} is not maximal (S1 and S2 are both parallel to it)")
	}
}

func TestSimpleFamilies(t *testing.T) {
	if got := len(All(gen.Complete(5))); got != 0 {
		t.Errorf("K5 has %d separators, want 0", got)
	}
	if got := len(All(gen.Path(5))); got != 3 {
		t.Errorf("P5 has %d separators, want 3 (internal vertices)", got)
	}
	// Cn has n(n-3)/2 minimal separators (all non-adjacent pairs).
	if got := len(All(gen.Cycle(6))); got != 9 {
		t.Errorf("C6 has %d separators, want 9", got)
	}
	// Disconnected graph: empty separator included.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	seps := All(g)
	foundEmpty := false
	for _, s := range seps {
		if s.IsEmpty() {
			foundEmpty = true
		}
	}
	if !foundEmpty {
		t.Errorf("disconnected graph should report the empty separator")
	}
}

func TestAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		g := gen.GNP(rng, n, 0.15+rng.Float64()*0.6)
		got := All(g)
		want := bruteforce.AllMinimalSeparators(g)
		if len(got) != len(want) {
			t.Fatalf("n=%d trial=%d: got %d separators, oracle %d\ngot=%v\nwant=%v",
				n, trial, len(got), len(want), got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("separator mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestCrossingSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		g := gen.ConnectedGNP(rng, 4+rng.Intn(8), 0.4)
		seps := All(g)
		for i := range seps {
			for j := range seps {
				if Crosses(g, seps[i], seps[j]) != Crosses(g, seps[j], seps[i]) {
					t.Fatalf("crossing not symmetric for %v, %v", seps[i], seps[j])
				}
			}
			if Crosses(g, seps[i], seps[i]) {
				t.Fatalf("separator crosses itself: %v", seps[i])
			}
		}
	}
}

func TestParraSchefflerRoundTrip(t *testing.T) {
	// Saturating a maximal pairwise-parallel family yields a minimal
	// triangulation whose minimal separators are exactly the family
	// (Theorem 2.5). We grow maximal families greedily.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		g := gen.ConnectedGNP(rng, 4+rng.Intn(5), 0.45)
		all := All(g)
		var family []vset.Set
		perm := rng.Perm(len(all))
		for _, idx := range perm {
			cand := all[idx]
			ok := true
			for _, s := range family {
				if Crosses(g, s, cand) {
					ok = false
					break
				}
			}
			if ok {
				family = append(family, cand)
			}
		}
		if !isMaximalParallel(g, family, all) {
			t.Fatalf("greedy family not maximal")
		}
		h := Saturate(g, family)
		if !chordal.IsTriangulationOf(h, g) {
			t.Fatalf("saturated family not a triangulation")
		}
		if !bruteforce.IsMinimalTriangulation(h, g) {
			t.Fatalf("saturated family not a *minimal* triangulation")
		}
		st, err := chordal.Analyze(h)
		if err != nil {
			t.Fatal(err)
		}
		hseps := st.Seps
		wantKeys := map[string]bool{}
		for _, s := range family {
			wantKeys[s.Key()] = true
		}
		if len(hseps) != len(family) {
			t.Fatalf("MinSep(H) has %d members, family has %d", len(hseps), len(family))
		}
		for _, s := range hseps {
			if !wantKeys[s.Key()] {
				t.Fatalf("MinSep(H) contains %v outside the family", s)
			}
		}
	}
}

// pairwiseParallel reports whether every two members of seps are parallel.
func pairwiseParallel(g *graph.Graph, seps []vset.Set) bool {
	for i := range seps {
		for j := i + 1; j < len(seps); j++ {
			if Crosses(g, seps[i], seps[j]) {
				return false
			}
		}
	}
	return true
}

// isMaximalParallel reports whether seps is a maximal set of pairwise
// parallel minimal separators with respect to the universe all.
func isMaximalParallel(g *graph.Graph, seps, all []vset.Set) bool {
	if !pairwiseParallel(g, seps) {
		return false
	}
	inSet := intern.FromSets(seps)
	for _, t := range all {
		if inSet.Contains(t) {
			continue
		}
		crossesSome := false
		for _, s := range seps {
			if Crosses(g, s, t) {
				crossesSome = true
				break
			}
		}
		if !crossesSome {
			return false
		}
	}
	return true
}
