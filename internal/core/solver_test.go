package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmc"
	"repro/internal/vset"
)

// oracleBest returns the optimal cost over all minimal triangulations of g
// according to the brute-force enumerator.
func oracleBest(g *graph.Graph, c cost.Cost) float64 {
	best := math.Inf(1)
	for _, h := range bruteforce.AllMinimalTriangulations(g) {
		cliques, err := chordal.MaximalCliques(h)
		if err != nil {
			panic(err)
		}
		if v := c.Eval(g, cliques); v < best {
			best = v
		}
	}
	return best
}

// mustNew builds an unbounded solver over a background context, which
// cannot fail.
func mustNew(g *graph.Graph, c cost.Cost) *Solver {
	s, err := New(context.Background(), g, c, Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// mustBounded builds a solver of width bound b ≥ 0 over a background
// context, which cannot fail.
func mustBounded(g *graph.Graph, c cost.Cost, b int) *Solver {
	s, err := New(context.Background(), g, c, Options{WidthBound: &b})
	if err != nil {
		panic(err)
	}
	return s
}

func checkResult(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	if !chordal.IsTriangulationOf(r.H, g) {
		t.Fatalf("result is not a triangulation of g")
	}
	if err := r.Tree.Validate(r.H); err != nil {
		t.Fatalf("result tree invalid for H: %v", err)
	}
	if err := r.Tree.Validate(g); err != nil {
		t.Fatalf("result tree invalid for G: %v", err)
	}
	cliques, err := chordal.MaximalCliques(r.H)
	if err != nil {
		t.Fatalf("H not chordal: %v", err)
	}
	if !r.Tree.IsCliqueTreeOf(r.H, cliques) {
		t.Fatalf("result tree is not a clique tree of H (bags=%v cliques=%v)", r.Bags, cliques)
	}
	// Seps must be MinSep(H).
	st, err := chordal.Analyze(r.H)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Seps
	if len(want) != len(r.Seps) {
		t.Fatalf("Seps = %v, want %v", r.Seps, want)
	}
	for i := range want {
		if !want[i].Equal(r.Seps[i]) {
			t.Fatalf("Seps mismatch: %v vs %v", r.Seps[i], want[i])
		}
	}
}

func TestMinTriangPaperExample(t *testing.T) {
	g := gen.PaperExample()
	// Width: H2 (saturate {u,v}) has cliques of size 3 → width 2.
	// H1 (saturate {w1,w2,w3}) has width 3. Optimal width = 2.
	s := mustNew(g, cost.Width{})
	r, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r)
	if r.Cost != 2 {
		t.Fatalf("optimal width = %v, want 2", r.Cost)
	}
	// Fill: H2 adds 1 edge, H1 adds 3. Optimal fill = 1.
	s = mustNew(g, cost.FillIn{})
	r, err = s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r)
	if r.Cost != 1 {
		t.Fatalf("optimal fill = %v, want 1", r.Cost)
	}
	if !r.H.HasEdge(0, 1) {
		t.Fatalf("min-fill triangulation should saturate {u,v}")
	}
}

func TestMinTriangTrivialGraphs(t *testing.T) {
	// Empty graph.
	s := mustNew(graph.New(0), cost.Width{})
	if _, err := s.MinTriang(nil); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	// Single vertex.
	s = mustNew(graph.New(1), cost.Width{})
	r, err := s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Fatalf("single vertex width = %v", r.Cost)
	}
	// Complete graph: itself, width n-1, fill 0.
	s = mustNew(gen.Complete(5), cost.FillIn{})
	r, err = s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 || len(r.Bags) != 1 {
		t.Fatalf("K5: cost=%v bags=%d", r.Cost, len(r.Bags))
	}
	// Already-chordal graph: zero fill.
	s = mustNew(gen.Path(6), cost.FillIn{})
	r, err = s.MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Fatalf("path fill = %v", r.Cost)
	}
}

func TestMinTriangDisconnected(t *testing.T) {
	g := graph.New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0) // triangle
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 3) // C4 in the other component
	for _, c := range []cost.Cost{cost.Width{}, cost.FillIn{}} {
		s := mustNew(g, c)
		r, err := s.MinTriang(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		checkResult(t, g, r)
		if want := oracleBest(g, c); r.Cost != want {
			t.Fatalf("%s: cost %v, oracle %v", c.Name(), r.Cost, want)
		}
	}
}

func TestMinTriangMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	costs := []cost.Cost{
		cost.Width{},
		cost.FillIn{},
		cost.LexWidthFill{},
		cost.TotalStateSpace{},
	}
	for trial := 0; trial < 70; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.6)
		for _, c := range costs {
			s := mustNew(g, c)
			r, err := s.MinTriang(nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v (edges=%v)", trial, c.Name(), err, g.Edges())
			}
			checkResult(t, g, r)
			if want := oracleBest(g, c); r.Cost != want {
				t.Fatalf("trial %d %s: cost %v, oracle %v (edges=%v)",
					trial, c.Name(), r.Cost, want, g.Edges())
			}
			if !bruteforce.IsMinimalTriangulation(r.H, g) {
				t.Fatalf("trial %d %s: result not a minimal triangulation", trial, c.Name())
			}
		}
	}
}

// genericOnly wraps a cost to hide its Combinable fast path, forcing the
// DP down the generic Eval route.
type genericOnly struct{ c cost.Cost }

func (g genericOnly) Name() string { return g.c.Name() + "-generic" }
func (g genericOnly) Eval(gr *graph.Graph, bags []vset.Set) float64 {
	return g.c.Eval(gr, bags)
}

func TestGenericPathMatchesCombinable(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		g := gen.GNP(rng, 2+rng.Intn(6), 0.4)
		for _, base := range []cost.Cost{cost.Width{}, cost.FillIn{}} {
			fast, err1 := mustNew(g, base).MinTriang(nil)
			slow, err2 := mustNew(g, genericOnly{base}).MinTriang(nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("path disagreement on feasibility")
			}
			if err1 != nil {
				continue
			}
			if fast.Cost != slow.Cost {
				t.Fatalf("%s: fast %v vs generic %v", base.Name(), fast.Cost, slow.Cost)
			}
		}
	}
}

func TestMinTriangWithConstraints(t *testing.T) {
	g := gen.PaperExample()
	s := mustNew(g, cost.Width{})
	s1 := vset.Of(6, 3, 4, 5) // S1 = {w1,w2,w3}
	s2 := vset.Of(6, 0, 1)    // S2 = {u,v}

	// Force S1 in: only H1 remains (width 3).
	r, err := s.MinTriang(&cost.Constraints{Include: []vset.Set{s1}})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r)
	if r.Cost != 3 || !r.H.IsClique(s1) {
		t.Fatalf("include-S1: cost=%v", r.Cost)
	}
	// Exclude S2 as a clique: again only H1.
	r, err = s.MinTriang(&cost.Constraints{Exclude: []vset.Set{s2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.H.IsClique(s2) || r.Cost != 3 {
		t.Fatalf("exclude-S2: cost=%v clique=%v", r.Cost, r.H.IsClique(s2))
	}
	// Include both S1 and S2: they cross — impossible.
	if _, err := s.MinTriang(&cost.Constraints{Include: []vset.Set{s1, s2}}); err == nil {
		t.Fatalf("crossing inclusions should be infeasible")
	}
	// Exclude both: some separator must be saturated — impossible
	// (every maximal parallel family contains S1 or S2).
	if _, err := s.MinTriang(&cost.Constraints{Exclude: []vset.Set{s1, s2}}); err == nil {
		t.Fatalf("excluding both S1 and S2 should be infeasible")
	}
}

func TestConstraintsMatchOracle(t *testing.T) {
	// For random graphs and random single constraints, the constrained
	// optimum must equal the oracle optimum over satisfying triangulations.
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		g := gen.GNP(rng, n, 0.25+rng.Float64()*0.5)
		all := bruteforce.AllMinimalSeparators(g)
		if len(all) == 0 {
			continue
		}
		sep := all[rng.Intn(len(all))]
		var cons *cost.Constraints
		if rng.Intn(2) == 0 {
			cons = &cost.Constraints{Include: []vset.Set{sep}}
		} else {
			cons = &cost.Constraints{Exclude: []vset.Set{sep}}
		}
		s := mustNew(g, cost.FillIn{})
		r, err := s.MinTriang(cons)

		best := math.Inf(1)
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			if !cons.Satisfied(h) {
				continue
			}
			cliques, _ := chordal.MaximalCliques(h)
			if v := (cost.FillIn{}).Eval(g, cliques); v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			if err == nil {
				t.Fatalf("trial %d: solver found %v but oracle says infeasible", trial, r.Cost)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: solver infeasible but oracle best %v (edges=%v, cons=%+v)",
				trial, best, g.Edges(), cons)
		}
		if r.Cost != best {
			t.Fatalf("trial %d: constrained cost %v, oracle %v", trial, r.Cost, best)
		}
		if !cons.Satisfied(r.H) {
			t.Fatalf("trial %d: result violates constraints", trial)
		}
	}
}

func TestBoundedWidthSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		g := gen.GNP(rng, n, 0.3+rng.Float64()*0.4)
		for b := 1; b < n; b++ {
			s := mustBounded(g, cost.FillIn{}, b)
			r, err := s.MinTriang(nil)

			best := math.Inf(1)
			for _, h := range bruteforce.AllMinimalTriangulations(g) {
				cliques, _ := chordal.MaximalCliques(h)
				if (cost.Width{}).Eval(g, cliques) > float64(b) {
					continue
				}
				if v := (cost.FillIn{}).Eval(g, cliques); v < best {
					best = v
				}
			}
			if math.IsInf(best, 1) {
				if err == nil {
					t.Fatalf("bound %d: solver found result but oracle infeasible", b)
				}
				continue
			}
			if err != nil {
				t.Fatalf("bound %d: solver infeasible, oracle best %v (edges=%v)", b, best, g.Edges())
			}
			if r.Tree.Width() > b {
				t.Fatalf("bound %d violated: width %d", b, r.Tree.Width())
			}
			if r.Cost != best {
				t.Fatalf("bound %d: cost %v, oracle %v", b, r.Cost, best)
			}
		}
	}
}

func TestSolverAccessors(t *testing.T) {
	g := gen.PaperExample()
	// The paper example has a cut vertex (v), so the default solver routes
	// through the atom decomposition; its separator and PMC aggregates
	// must still be exactly MinSep(G) and PMC(G).
	s := mustNew(g, cost.Width{})
	if !s.Decomposed() {
		t.Fatalf("paper example should decompose (v is a cut vertex)")
	}
	if len(s.MinimalSeparators()) != 3 {
		t.Fatalf("seps = %d", len(s.MinimalSeparators()))
	}
	if len(s.PMCs()) != 6 {
		t.Fatalf("pmcs = %d", len(s.PMCs()))
	}
	if s.Graph() != g || s.Cost().Name() != "width" {
		t.Fatalf("accessors broken")
	}
	if s.InitDuration <= 0 {
		t.Fatalf("init duration not recorded")
	}
	// The decomposed block count sums the atoms' DPs: the atoms
	// {u,v,w1..w3} and {v,v'} have 4 and 1 full blocks respectively, plus
	// one virtual top block each.
	if s.NumFullBlocks() != 5 {
		t.Fatalf("decomposed full blocks = %d, want 5", s.NumFullBlocks())
	}

	mono, err := New(context.Background(), g, cost.Width{}, Options{noDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Decomposed() {
		t.Fatalf("noDecompose solver still decomposed")
	}
	if len(mono.MinimalSeparators()) != 3 {
		t.Fatalf("mono seps = %d", len(mono.MinimalSeparators()))
	}
	if len(mono.PMCs()) != 6 {
		t.Fatalf("mono pmcs = %d", len(mono.PMCs()))
	}
	if mono.NumFullBlocks() != 7 {
		t.Fatalf("mono full blocks = %d", mono.NumFullBlocks())
	}
}

// TestBoundedSolverSeparators: a solver of width bound b keeps the
// minimal separators of size at most b and the PMCs of size at most b+1,
// from the one MinSep(G) it computes.
func TestBoundedSolverSeparators(t *testing.T) {
	g := gen.PaperExample()
	b := 2
	s, err := New(context.Background(), g, cost.Width{}, Options{WidthBound: &b, noDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	// S3 = {v} and S2 = {u, v}, in canonical order; S1 = {w1, w2, w3} is
	// too large.
	seps := s.MinimalSeparators()
	if len(seps) != 2 || !seps[0].Equal(vset.Of(6, 1)) || !seps[1].Equal(vset.Of(6, 0, 1)) {
		t.Fatalf("bound-2 separators = %v, want [{1} {0, 1}]", seps)
	}
	want := 0
	for _, omega := range pmc.All(g) {
		if omega.Len() <= b+1 {
			want++
		}
	}
	if len(s.PMCs()) != want {
		t.Fatalf("bound-2 PMCs = %v, want the %d of size at most 3", s.PMCs(), want)
	}
}

func enumerateAll(t *testing.T, s *Solver, limit int) []*Result {
	t.Helper()
	e := s.EnumerateContext(context.Background())
	var out []*Result
	for {
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, r)
		if len(out) > limit {
			t.Fatalf("enumeration exceeded %d results — runaway or duplicates", limit)
		}
	}
}

func TestEnumeratePaperExample(t *testing.T) {
	// The paper example has exactly two minimal triangulations: H1, H2.
	g := gen.PaperExample()
	s := mustNew(g, cost.Width{})
	results := enumerateAll(t, s, 10)
	if len(results) != 2 {
		t.Fatalf("enumerated %d triangulations, want 2", len(results))
	}
	if results[0].Cost != 2 || results[1].Cost != 3 {
		t.Fatalf("costs = %v, %v; want 2, 3", results[0].Cost, results[1].Cost)
	}
	for _, r := range results {
		checkResult(t, g, r)
	}
}

func TestEnumerateCompleteAndOrderedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}, cost.LexWidthFill{}}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		g := gen.GNP(rng, n, 0.2+rng.Float64()*0.6)
		want := bruteforce.AllMinimalTriangulations(g)
		c := costs[trial%len(costs)]
		s := mustNew(g, c)
		results := enumerateAll(t, s, len(want)+5)
		if len(results) != len(want) {
			t.Fatalf("trial %d (%s, n=%d): enumerated %d, oracle %d (edges=%v)",
				trial, c.Name(), n, len(results), len(want), g.Edges())
		}
		// Completeness + distinctness.
		seen := map[string]bool{}
		for _, r := range results {
			key := r.H.EdgeSetKey()
			if seen[key] {
				t.Fatalf("trial %d: duplicate triangulation emitted", trial)
			}
			seen[key] = true
		}
		for _, h := range want {
			if !seen[h.EdgeSetKey()] {
				t.Fatalf("trial %d: oracle triangulation missed", trial)
			}
		}
		// Ranked order.
		for i := 1; i < len(results); i++ {
			if results[i].Cost < results[i-1].Cost {
				t.Fatalf("trial %d: order violated: %v after %v",
					trial, results[i].Cost, results[i-1].Cost)
			}
		}
		// Every result internally consistent.
		for _, r := range results {
			checkResult(t, g, r)
		}
	}
}

func TestEnumerateBoundedWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		g := gen.GNP(rng, n, 0.3+rng.Float64()*0.4)
		b := 1 + rng.Intn(n-1)
		s := mustBounded(g, cost.FillIn{}, b)
		results := enumerateAll(t, s, 1000)

		var want []string
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			cliques, _ := chordal.MaximalCliques(h)
			if (cost.Width{}).Eval(g, cliques) <= float64(b) {
				want = append(want, h.EdgeSetKey())
			}
		}
		if len(results) != len(want) {
			t.Fatalf("trial %d b=%d: got %d results, oracle %d (edges=%v)",
				trial, b, len(results), len(want), g.Edges())
		}
		got := map[string]bool{}
		for _, r := range results {
			if r.Tree.Width() > b {
				t.Fatalf("width bound violated")
			}
			got[r.H.EdgeSetKey()] = true
		}
		for _, k := range want {
			if !got[k] {
				t.Fatalf("bounded enumeration missed a triangulation")
			}
		}
	}
}

func TestTopK(t *testing.T) {
	g := gen.Cycle(6)
	s := mustNew(g, cost.FillIn{})
	top := s.TopK(context.Background(), 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cost < top[i-1].Cost {
			t.Fatalf("TopK not sorted")
		}
	}
	// C6: every minimal triangulation adds exactly 3 chords.
	for _, r := range top {
		if r.Cost != 3 {
			t.Fatalf("C6 minimal fill = %v, want 3", r.Cost)
		}
	}
	// Huge k just exhausts.
	if n := len(s.TopK(context.Background(), 100000)); n != 14 {
		// C6 has Catalan(4) = 14 minimal triangulations.
		t.Fatalf("C6 has %d minimal triangulations, want 14", n)
	}
}

func sortedCosts(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Cost
	}
	sort.Float64s(out)
	return out
}

func TestEnumerateEmitsAllCostsOracle(t *testing.T) {
	// The multiset of emitted costs must match the oracle's multiset.
	rng := rand.New(rand.NewSource(9090))
	for trial := 0; trial < 25; trial++ {
		g := gen.GNP(rng, 3+rng.Intn(4), 0.4)
		c := cost.FillIn{}
		s := mustNew(g, c)
		results := enumerateAll(t, s, 4000)
		var want []float64
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			cliques, _ := chordal.MaximalCliques(h)
			want = append(want, c.Eval(g, cliques))
		}
		sort.Float64s(want)
		got := sortedCosts(results)
		if len(got) != len(want) {
			t.Fatalf("count mismatch: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cost multiset mismatch at %d: %v vs %v", i, got, want)
			}
		}
	}
}
