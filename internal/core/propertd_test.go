package core

import (
	"math/rand"
	"testing"

	"repro/internal/chordal"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/td"
)

func TestProperTDsPaperExample(t *testing.T) {
	// H2 has 9 clique trees (3 ways to connect the three {u,v,wi}
	// cliques in a tree, times 3 attachment points for {v,v'}), and H1
	// has exactly 1 — so the paper example has 10 proper tree
	// decompositions, the width-2 family first.
	g := gen.PaperExample()
	s := mustNew(g, cost.Width{})
	e := s.EnumerateProperTDs()
	var widths []int
	var tds []*td.Decomposition
	for {
		d, r, ok := e.Next()
		if !ok {
			break
		}
		if r == nil {
			t.Fatalf("missing triangulation for decomposition")
		}
		widths = append(widths, d.Width())
		tds = append(tds, d)
		if err := d.Validate(g); err != nil {
			t.Fatalf("invalid proper TD: %v", err)
		}
	}
	if len(tds) != 10 {
		t.Fatalf("got %d proper TDs, want 10", len(tds))
	}
	for i := 0; i < 9; i++ {
		if widths[i] != 2 {
			t.Fatalf("TD %d has width %d, want 2 (ranked order)", i, widths[i])
		}
	}
	if widths[9] != 3 {
		t.Fatalf("last TD has width %d, want 3", widths[9])
	}
	// All distinct as labeled trees over bags: compare via bag multiset +
	// edge structure key.
	seen := map[string]bool{}
	for _, d := range tds {
		key := tdKey(d)
		if seen[key] {
			t.Fatalf("duplicate proper TD emitted")
		}
		seen[key] = true
	}
}

// tdKey canonicalizes a decomposition as a sorted list of bag-key pairs
// per tree edge plus the bag set (trees on ≥2 nodes are determined by
// their edge sets).
func tdKey(d *td.Decomposition) string {
	var key string
	var parts []string
	for x, nb := range d.Adj {
		for _, y := range nb {
			if x < y {
				a, b := d.Bags[x].Key(), d.Bags[y].Key()
				if a > b {
					a, b = b, a
				}
				parts = append(parts, a+"~"+b)
			}
		}
	}
	for _, b := range d.Bags {
		parts = append(parts, b.Key())
	}
	// Order-insensitive fold.
	sortStrings(parts)
	for _, p := range parts {
		key += p + "|"
	}
	return key
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestProperTDsAreProper(t *testing.T) {
	// Every emitted decomposition must be a clique tree of its minimal
	// triangulation — the definition of proper (Theorem 2.2(3)).
	rng := rand.New(rand.NewSource(2121))
	for trial := 0; trial < 25; trial++ {
		g := gen.GNP(rng, 3+rng.Intn(4), 0.4)
		s := mustNew(g, cost.FillIn{})
		e := s.EnumerateProperTDs()
		count := 0
		lastCost := -1.0
		for {
			d, r, ok := e.Next()
			if !ok {
				break
			}
			count++
			if count > 5000 {
				t.Fatalf("runaway proper TD enumeration")
			}
			cliques, err := chordal.MaximalCliques(r.H)
			if err != nil {
				t.Fatal(err)
			}
			if !d.IsCliqueTreeOf(r.H, cliques) {
				t.Fatalf("emitted TD is not a clique tree of its triangulation")
			}
			if r.Cost < lastCost {
				t.Fatalf("ranked order violated across proper TDs")
			}
			lastCost = r.Cost
		}
		if count == 0 && g.NumVertices() > 0 {
			t.Fatalf("no proper TDs emitted")
		}
	}
}

func TestProperTDSingleClique(t *testing.T) {
	s := mustNew(gen.Complete(4), cost.Width{})
	e := s.EnumerateProperTDs()
	d, _, ok := e.Next()
	if !ok || d.NumNodes() != 1 {
		t.Fatalf("K4 should have one single-bag proper TD")
	}
	if _, _, ok := e.Next(); ok {
		t.Fatalf("K4 has exactly one proper TD")
	}
}
