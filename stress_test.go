package rankedtriang

// Deep randomized cross-validation of the whole pipeline against the
// brute-force oracles. These sweeps are the strongest correctness evidence
// in the repository; they are skipped under -short.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/ckk"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/minsep"
	"repro/internal/pmc"
)

func TestStressSeparatorsAndPMCs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped with -short")
	}
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(8) // up to 9 vertices
		g := gen.GNP(rng, n, 0.1+rng.Float64()*0.8)
		seps := minsep.All(g)
		wantSeps := bruteforce.AllMinimalSeparators(g)
		if len(seps) != len(wantSeps) {
			t.Fatalf("trial %d: %d seps vs oracle %d (edges=%v)",
				trial, len(seps), len(wantSeps), g.Edges())
		}
		if n <= 7 {
			pmcs := pmc.All(g)
			wantPMCs := bruteforce.AllPMCs(g)
			if len(pmcs) != len(wantPMCs) {
				t.Fatalf("trial %d: %d PMCs vs oracle %d (edges=%v)",
					trial, len(pmcs), len(wantPMCs), g.Edges())
			}
			for i := range pmcs {
				if !pmcs[i].Equal(wantPMCs[i]) {
					t.Fatalf("trial %d: PMC set mismatch", trial)
				}
			}
		}
	}
}

func TestStressRankedEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped with -short")
	}
	rng := rand.New(rand.NewSource(654))
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}, cost.LexWidthFill{}, cost.TotalStateSpace{}}
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6) // up to 7 vertices: oracle stays fast
		g := gen.GNP(rng, n, 0.15+rng.Float64()*0.7)
		want := bruteforce.AllMinimalTriangulations(g)
		c := costs[trial%len(costs)]
		s := mustSolver(g, c)
		e := s.EnumerateContext(context.Background())
		seen := map[string]bool{}
		prev := -1e18
		for {
			r, ok := e.Next()
			if !ok {
				break
			}
			key := r.H.EdgeSetKey()
			if seen[key] {
				t.Fatalf("trial %d (%s): duplicate", trial, c.Name())
			}
			seen[key] = true
			if r.Cost < prev {
				t.Fatalf("trial %d (%s): order violated", trial, c.Name())
			}
			prev = r.Cost
			if len(seen) > len(want) {
				t.Fatalf("trial %d (%s): more results than oracle", trial, c.Name())
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("trial %d (%s): %d results vs oracle %d (edges=%v)",
				trial, c.Name(), len(seen), len(want), g.Edges())
		}
		for _, h := range want {
			if !seen[h.EdgeSetKey()] {
				t.Fatalf("trial %d (%s): missed a triangulation", trial, c.Name())
			}
		}
	}
}

func TestStressCKK(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped with -short")
	}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.15+rng.Float64()*0.7)
		want := bruteforce.AllMinimalTriangulations(g)
		got := ckk.New(g).All()
		if len(got) != len(want) {
			t.Fatalf("trial %d: CKK %d vs oracle %d (edges=%v)",
				trial, len(got), len(want), g.Edges())
		}
	}
}

func TestStressWeightedCostsAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped with -short")
	}
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.6)
		// Random monotone bag weight: sum of random positive vertex
		// weights (monotone under inclusion, so split monotonicity holds).
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.5 + rng.Float64()*4
		}
		c := cost.WeightedWidth{
			CostName: "rand-weight",
			BagWeight: func(_ *Graph, bag VertexSet) float64 {
				total := 0.0
				bag.ForEach(func(v int) bool { total += weights[v]; return true })
				return total
			},
		}
		r, err := mustSolver(g, c).MinTriang(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := 1e18
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			cliques, _ := chordal.MaximalCliques(h)
			if v := c.Eval(g, cliques); v < best {
				best = v
			}
		}
		if r.Cost != best {
			t.Fatalf("trial %d: weighted cost %v vs oracle %v", trial, r.Cost, best)
		}
	}
}

func TestStressDomainStateSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped with -short")
	}
	rng := rand.New(rand.NewSource(222))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.6)
		domains := make([]int, n)
		for i := range domains {
			domains[i] = 2 + rng.Intn(5)
		}
		c := cost.TotalStateSpace{Domain: domains}
		r, err := mustSolver(g, c).MinTriang(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := 1e18
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			cliques, _ := chordal.MaximalCliques(h)
			if v := c.Eval(g, cliques); v < best {
				best = v
			}
		}
		if r.Cost != best {
			t.Fatalf("trial %d: state space %v vs oracle %v", trial, r.Cost, best)
		}
	}
}
