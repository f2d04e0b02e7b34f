package ckk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestNextContextCancelled(t *testing.T) {
	g := gen.Cycle(8)
	ctx, cancel := context.WithCancel(context.Background())
	e := New(g)
	if _, ok := e.NextContext(ctx); !ok {
		t.Fatal("first result should be available before cancellation")
	}
	cancel()
	if r, ok := e.NextContext(ctx); ok {
		t.Fatalf("cancelled NextContext returned a result: %v", r)
	}
	if got := e.AllContext(ctx); len(got) != 0 {
		t.Fatalf("cancelled AllContext returned %d results", len(got))
	}
}

func TestAllContextTruncates(t *testing.T) {
	// A context cancelled midway yields a strict prefix of the C6
	// enumeration (14 results total), never a wrong or duplicated set.
	g := gen.Cycle(6)
	for stop := 0; stop <= 14; stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		e := New(g)
		var got []*Result
		for i := 0; i < stop; i++ {
			r, ok := e.NextContext(ctx)
			if !ok {
				t.Fatalf("stop=%d: exhausted early at %d", stop, i)
			}
			got = append(got, r)
		}
		cancel()
		got = append(got, e.AllContext(ctx)...)
		if len(got) != stop {
			t.Fatalf("stop=%d: drained %d results after cancel", stop, len(got))
		}
	}
}

// TestInternedDedupMatchesEdgeKeys pins the dense-ID dedup to the old
// edge-set-key dedup it replaced: on random graphs the enumeration sizes
// match the brute-force oracle (completeness) AND no two emitted results
// share a separator family (the Parra–Scheffler injectivity the ID key
// relies on).
func TestInternedDedupMatchesEdgeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for trial := 0; trial < 40; trial++ {
		g := gen.GNP(rng, 3+rng.Intn(5), 0.5)
		famSeen := map[string]bool{}
		for _, r := range New(g).All() {
			keys := make([]string, len(r.Seps))
			for i, s := range r.Seps {
				keys[i] = s.Key()
			}
			fam := canonicalFamilyKey(keys)
			if famSeen[fam] {
				t.Fatalf("trial %d: two triangulations share a separator family", trial)
			}
			famSeen[fam] = true
		}
	}
}

func canonicalFamilyKey(keys []string) string {
	out := ""
	for {
		best := ""
		for _, k := range keys {
			if k != "" && (best == "" || k < best) {
				best = k
			}
		}
		if best == "" {
			return out
		}
		out += best + "|"
		for i, k := range keys {
			if k == best {
				keys[i] = ""
				break
			}
		}
	}
}

// TestMoveFamilyPreDedup exercises the tried-family fast path: K4 plus a
// pendant forces repeated saturations of identical families; the
// enumeration must still match the oracle exactly.
func TestMoveFamilyPreDedup(t *testing.T) {
	g := graph.New(5)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(0, 4)
	want := bruteforce.AllMinimalTriangulations(g)
	got := New(g).All()
	if len(got) != len(want) {
		t.Fatalf("K4+pendant: %d vs oracle %d", len(got), len(want))
	}
}
