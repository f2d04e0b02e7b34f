package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// setBranchFilter turns the empty-branch filter on (the default) or off,
// on the solver and its atom sub-solvers. Not safe to flip while
// enumerations are in flight.
func (s *Solver) setBranchFilter(on bool) {
	s.filterOff = !on
	for _, sub := range s.subs {
		sub.setBranchFilter(on)
	}
}

// setBranchAudit installs fn as the skipped-branch audit on the solver
// and its atom sub-solvers (see Solver.auditSkipped).
func (s *Solver) setBranchAudit(fn func(*Result)) {
	s.auditSkipped = fn
	for _, sub := range s.subs {
		sub.setBranchAudit(fn)
	}
}

// filterCase is one graph of the empty-branch filter corpus.
type filterCase struct {
	name string
	g    *graph.Graph
}

// filterCorpus returns random G(n, p) graphs with n in 7..14, clique
// chains (which decompose into atoms) and disjoint unions (which are
// disconnected, so the monolithic solver sees several components).
func filterCorpus() []filterCase {
	rng := rand.New(rand.NewSource(23))
	var out []filterCase
	for i := 0; i < 8; i++ {
		n := 7 + i
		out = append(out, filterCase{fmt.Sprintf("gnp%d", n), gen.ConnectedGNP(rng, n, 0.2+0.25*rng.Float64())})
	}
	out = append(out,
		filterCase{"chain3x5", gen.CliqueChain(rng, 3, 5, 2, 0.6)},
		filterCase{"chain4x4", gen.CliqueChain(rng, 4, 4, 1, 0.5)},
		filterCase{"C5+C6", disjointUnion(gen.Cycle(5), gen.Cycle(6))},
		filterCase{"C6+gnp7", disjointUnion(gen.Cycle(6), gen.ConnectedGNP(rng, 7, 0.35))},
	)
	return out
}

// filterMode is one solver shape the filter runs in.
type filterMode struct {
	name  string
	bound int // width bound, or -1 for none
	mono  bool
}

func (m filterMode) options() Options {
	o := Options{noDecompose: m.mono}
	if m.bound >= 0 {
		b := m.bound
		o.WidthBound = &b
	}
	return o
}

// filterModes are the monolithic solver, the default (decomposed when
// the graph has clique separators and the cost merges) and width bounds
// 2–4.
var filterModes = []filterMode{
	{"mono", -1, true},
	{"default", -1, false},
	{"bound2", 2, false},
	{"bound3", 3, false},
	{"bound4", 4, false},
}

var filterCosts = []cost.Cost{cost.Width{}, cost.FillIn{}, cost.LexWidthFill{}, cost.TotalStateSpace{}}

// TestEmptyBranchFilterSkipsOnlyEmpty solves every branch the filter
// skips and asserts each is empty — the filter's soundness, checked
// across costs, graph shapes and solver modes.
func TestEmptyBranchFilterSkipsOnlyEmpty(t *testing.T) {
	const max = 120
	var skipped int
	for _, fc := range filterCorpus() {
		for _, c := range filterCosts {
			for _, m := range filterModes {
				s, err := New(context.Background(), fc.g, c, m.options())
				if err != nil {
					t.Fatal(err)
				}
				var nonEmpty *Result
				s.setBranchAudit(func(r *Result) {
					skipped++
					if r != nil && nonEmpty == nil {
						nonEmpty = r
					}
				})
				collectEnumeration(s.EnumerateContext(context.Background()), max)
				if nonEmpty != nil {
					t.Fatalf("%s %s %s: the filter skipped a branch holding %s", fc.name, c.Name(), m.name, resultKey(nonEmpty))
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the filter skipped no branch over the whole corpus")
	}
}

// TestEmptyBranchFilterKeepsStream asserts filtered and unfiltered
// enumerations emit identical streams, sequentially and with four branch
// workers. TestEnumerationOrderMatchesOracle cannot see a difference: both
// of its sides run the same Lawler–Murty split.
func TestEmptyBranchFilterKeepsStream(t *testing.T) {
	const max = 120
	for _, fc := range filterCorpus() {
		for _, c := range filterCosts {
			for _, m := range filterModes {
				on, err := New(context.Background(), fc.g, c, m.options())
				if err != nil {
					t.Fatal(err)
				}
				off, err := New(context.Background(), fc.g, c, m.options())
				if err != nil {
					t.Fatal(err)
				}
				off.setBranchFilter(false)
				want := collectEnumeration(off.EnumerateContext(context.Background()), max)
				for _, workers := range []int{1, 4} {
					got := collectEnumeration(withWorkers(on.EnumerateContext(context.Background()), workers), max)
					if len(got) != len(want) {
						t.Fatalf("%s %s %s workers %d: filtered stream has %d results, unfiltered %d",
							fc.name, c.Name(), m.name, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %s %s workers %d: streams diverge at rank %d", fc.name, c.Name(), m.name, workers, i)
						}
					}
				}
			}
		}
	}
}

// TestEmptyBranchStatsAccount checks that every branch the filter skips
// is one the unfiltered enumeration solves and finds empty: over a full
// drain, skipped plus solved equals the unfiltered solves, and skipped
// plus empty solves equals the unfiltered empty solves. A partial read
// would not do: branches are solved when they reach the top of the
// queue, and the empty branches the unfiltered queue holds change which
// ones reach it by a given rank.
func TestEmptyBranchStatsAccount(t *testing.T) {
	g := disjointUnion(gen.Cycle(6), gen.Cycle(7))
	on := mustNew(g, cost.LexWidthFill{})
	off := mustNew(g, cost.LexWidthFill{})
	off.setBranchFilter(false)
	collectEnumeration(on.EnumerateContext(context.Background()), 1<<20)
	collectEnumeration(off.EnumerateContext(context.Background()), 1<<20)
	a, b := on.ReuseStats(), off.ReuseStats()
	if b.EmptyBranches != 0 {
		t.Fatalf("unfiltered enumeration skipped %d branches", b.EmptyBranches)
	}
	if a.EmptyBranches == 0 {
		t.Fatal("the filter skipped no branch on two disjoint cycles under lex")
	}
	if a.ConstrainedSolves+a.EmptyBranches != b.ConstrainedSolves || a.EmptySolves+a.EmptyBranches != b.EmptySolves {
		t.Fatalf("filtered %+v does not account for unfiltered %+v", a, b)
	}
}

// prism returns the prism over C_k: two k-cycles joined by a perfect
// matching, vertex i to vertex k+i.
func prism(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		g.AddEdge(i, (i+1)%k)
		g.AddEdge(k+i, k+(i+1)%k)
		g.AddEdge(i, k+i)
	}
	return g
}

// TestEmptyBranchFilterTestsEveryExclusion pins the solves of two
// symmetric full drains that still find nothing. Testing every exclusion
// of a branch, not only the one the split adds, leaves none on two
// disjoint 7-cycles under lex (43 of 1,806 when only the new exclusion
// was tested) and 57 of 326 on the prism over C5 under fill (96 of 365).
func TestEmptyBranchFilterTestsEveryExclusion(t *testing.T) {
	cases := []struct {
		name                   string
		g                      *graph.Graph
		c                      cost.Cost
		results, solves, empty int
	}{
		{"2xC7 lex", disjointUnion(gen.Cycle(7), gen.Cycle(7)), cost.LexWidthFill{}, 1764, 1763, 0},
		{"prism5 fill", prism(5), cost.FillIn{}, 270, 326, 57},
	}
	for _, tc := range cases {
		s := mustNew(tc.g, tc.c)
		n := len(collectEnumeration(s.EnumerateContext(context.Background()), 1<<20))
		st := s.ReuseStats()
		if n != tc.results || st.ConstrainedSolves != uint64(tc.solves) || st.EmptySolves != uint64(tc.empty) {
			t.Errorf("%s: %d results, %d solves, %d empty; want %d, %d, %d",
				tc.name, n, st.ConstrainedSolves, st.EmptySolves, tc.results, tc.solves, tc.empty)
		}
	}
}

// countingWidth is a WeightedWidth whose BagWeight calls are counted,
// with the calls made by whole-decomposition evaluation (one per bag of
// every built result) counted apart.
type countingWidth struct {
	cost.WeightedWidth
	evalBags *atomic.Int64
}

func (c countingWidth) Eval(g *graph.Graph, bags []vset.Set) float64 {
	c.evalBags.Add(int64(len(bags)))
	return c.WeightedWidth.Eval(g, bags)
}

// TestStaticBagTermsOncePerCandidate asserts the DP computes a
// candidate's bag terms once, at init, however many constrained solves
// follow: across init and 50 results, BagWeight runs once per (block,
// candidate) beyond the calls result evaluation makes.
func TestStaticBagTermsOncePerCandidate(t *testing.T) {
	var weights, evalBags atomic.Int64
	c := countingWidth{
		WeightedWidth: cost.WeightedWidth{BagWeight: func(_ *graph.Graph, bag vset.Set) float64 {
			weights.Add(1)
			return float64(bag.Len())
		}},
		evalBags: &evalBags,
	}
	s, err := New(context.Background(), gen.Grid(3, 4), c, Options{noDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	cands := 0
	for _, bd := range s.blocks {
		cands += len(bd.cands)
	}
	if got := collectEnumeration(s.EnumerateContext(context.Background()), 50); len(got) != 50 {
		t.Fatalf("enumeration emitted %d results, want 50", len(got))
	}
	if s.ReuseStats().ConstrainedSolves == 0 {
		t.Fatal("enumeration ran no constrained solves")
	}
	if got := weights.Load() - evalBags.Load(); got != int64(cands) {
		t.Fatalf("BagWeight ran %d times in the DP, want once per candidate (%d)", got, cands)
	}
}

// TestSharedSolverPlainAndOrbitParallel drains a plain and an orbit
// enumeration of one fresh solver at the same time, as the service pool
// does, so the lazily built crossing rows and constraint geometry are
// raced; both streams must equal their solo drains.
func TestSharedSolverPlainAndOrbitParallel(t *testing.T) {
	g := disjointUnion(gen.Grid(2, 4), gen.Cycle(6))
	drain := func(b Backend, workers int) []string {
		e := withWorkers(b.EnumerateContext(context.Background()), workers)
		var out []string
		for {
			r, ok := e.Next()
			if !ok {
				return out
			}
			out = append(out, fmt.Sprintf("%d %s", r.OrbitSize, resultKey(r)))
		}
	}
	for _, c := range []cost.Cost{cost.FillIn{}, cost.LexWidthFill{}} {
		solo := mustNew(g, c)
		wantPlain := drain(solo, 1)
		wantOrbit := drain(NewOrbitBackend(solo, nil), 1)
		shared := mustNew(g, c)
		var plain, orbit []string
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); plain = drain(shared, 2) }()
		go func() { defer wg.Done(); orbit = drain(NewOrbitBackend(shared, nil), 2) }()
		wg.Wait()
		if fmt.Sprint(plain) != fmt.Sprint(wantPlain) {
			t.Fatalf("%s: concurrent plain drain differs from its solo drain", c.Name())
		}
		if fmt.Sprint(orbit) != fmt.Sprint(wantOrbit) {
			t.Fatalf("%s: concurrent orbit drain differs from its solo drain", c.Name())
		}
	}
}
