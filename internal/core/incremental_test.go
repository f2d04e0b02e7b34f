package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// genericCost hides the Combinable fast path, forcing the DP onto the
// whole-decomposition evaluation (and the incremental solver off the
// keep-baseline shortcut).
type genericCost struct{ inner cost.Cost }

func (c genericCost) Name() string { return c.inner.Name() + "-generic" }
func (c genericCost) Eval(g *graph.Graph, bags []vset.Set) float64 {
	return c.inner.Eval(g, bags)
}

// resultKey fingerprints a Result exactly: cost, bag sequence, separator
// sequence and triangulation edges. Two runs emitting equal keys in equal
// order are byte-identical enumerations.
func resultKey(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%v|bags:", r.Cost)
	for _, bag := range r.Bags {
		b.WriteString(bag.String())
		b.WriteByte(';')
	}
	b.WriteString("|seps:")
	for _, s := range r.Seps {
		b.WriteString(s.String())
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "|edges:%v", r.H.Edges())
	return b.String()
}

// randomConstraints draws a constraint pair whose separators come from
// the solver's separator list plus, occasionally, an arbitrary vertex set
// (exercising the public API's non-minimal-separator fallback).
func randomConstraints(rng *rand.Rand, s *Solver, arbitrary bool) *cost.Constraints {
	seps := s.MinimalSeparators()
	cons := &cost.Constraints{}
	if len(seps) == 0 {
		return cons
	}
	k := rng.Intn(4)
	for i := 0; i < k; i++ {
		sep := seps[rng.Intn(len(seps))]
		if rng.Intn(2) == 0 {
			cons.Include = append(cons.Include, sep)
		} else {
			cons.Exclude = append(cons.Exclude, sep)
		}
	}
	if arbitrary && rng.Intn(2) == 0 {
		n := s.Graph().Universe()
		set := vset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				set.AddInPlace(v)
			}
		}
		if !set.IsEmpty() {
			cons.Include = append(cons.Include, set)
		}
	}
	return cons
}

// TestIncrementalMatchesFullResolveMinTriang property-tests the
// incremental constrained solve against the from-scratch oracle on
// random graphs: same feasibility, same cost, same triangulation, bag for
// bag.
func TestIncrementalMatchesFullResolveMinTriang(t *testing.T) {
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}, genericCost{cost.FillIn{}}}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(5)
		p := 0.2 + 0.3*rng.Float64()
		g := gen.ConnectedGNP(rng, n, p)
		for _, c := range costs {
			inc := mustNew(g, c)
			oracle := mustNew(g, c)
			oracle.setFullResolve(true)
			for trial := 0; trial < 25; trial++ {
				cons := randomConstraints(rng, inc, true)
				got, gotErr := inc.MinTriang(cons)
				want, wantErr := oracle.MinTriang(cons)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d cost %s trial %d: incremental err=%v, oracle err=%v (cons %+v)",
						seed, c.Name(), trial, gotErr, wantErr, cons)
				}
				if gotErr != nil {
					continue
				}
				if gk, wk := resultKey(got), resultKey(want); gk != wk {
					t.Fatalf("seed %d cost %s trial %d: incremental result differs\n got %s\nwant %s",
						seed, c.Name(), trial, gk, wk)
				}
			}
		}
	}
}

// TestIncrementalMatchesFullResolveBounded repeats the property test for
// the bounded solver, whose baseline DP has infeasible blocks.
func TestIncrementalMatchesFullResolveBounded(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ConnectedGNP(rng, 10, 0.35)
		for _, b := range []int{2, 3, 5} {
			inc := mustBounded(g, cost.Width{}, b)
			oracle := mustBounded(g, cost.Width{}, b)
			oracle.setFullResolve(true)
			for trial := 0; trial < 15; trial++ {
				cons := randomConstraints(rng, inc, false)
				got, gotErr := inc.MinTriang(cons)
				want, wantErr := oracle.MinTriang(cons)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d bound %d trial %d: incremental err=%v, oracle err=%v",
						seed, b, trial, gotErr, wantErr)
				}
				if gotErr == nil && resultKey(got) != resultKey(want) {
					t.Fatalf("seed %d bound %d trial %d: bounded incremental result differs", seed, b, trial)
				}
			}
		}
	}
}

// collectEnumeration drains up to max results as exact keys.
func collectEnumeration(e *Enumerator, max int) []string {
	var out []string
	for len(out) < max {
		r, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, resultKey(r))
	}
	return out
}

// TestEnumerationOrderMatchesOracle asserts the headline guarantee of the
// refactor: the full ranked enumeration — order included — is identical
// between the incremental solver and the from-scratch re-solve oracle,
// sequentially and with parallel branch workers.
func TestEnumerationOrderMatchesOracle(t *testing.T) {
	costs := []cost.Cost{cost.Width{}, cost.FillIn{}, cost.LexWidthFill{}, genericCost{cost.Width{}}}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 7 + rng.Intn(4)
		g := gen.ConnectedGNP(rng, n, 0.2+0.3*rng.Float64())
		for _, c := range costs {
			inc := mustNew(g, c)
			oracle := mustNew(g, c)
			oracle.setFullResolve(true)
			const max = 300
			want := collectEnumeration(oracle.EnumerateContext(context.Background()), max)
			got := collectEnumeration(withWorkers(inc.EnumerateContext(context.Background()), 1), max)
			if len(got) != len(want) {
				t.Fatalf("seed %d cost %s: incremental emitted %d results, oracle %d",
					seed, c.Name(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d cost %s: enumeration diverges at rank %d\n got %s\nwant %s",
						seed, c.Name(), i, got[i], want[i])
				}
			}
			par := collectEnumeration(withWorkers(inc.EnumerateContext(context.Background()), 4), max)
			if len(par) != len(want) {
				t.Fatalf("seed %d cost %s: parallel emitted %d results, oracle %d",
					seed, c.Name(), len(par), len(want))
			}
			for i := range par {
				if par[i] != want[i] {
					t.Fatalf("seed %d cost %s: parallel enumeration diverges at rank %d",
						seed, c.Name(), i)
				}
			}
		}
	}
}

// TestReuseStatsCount sanity-checks the /v1/stats counters: constrained
// solves accumulate, dirty plus reused blocks account for every block of
// every solve, empty solves are a subset of the solves, and the branches
// proven empty are counted (and summed over atom sub-solvers).
func TestReuseStatsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ConnectedGNP(rng, 12, 0.3)
	s := mustNew(g, cost.Width{})
	if st := s.ReuseStats(); st.ConstrainedSolves != 0 {
		t.Fatalf("fresh solver reports %d constrained solves", st.ConstrainedSolves)
	}
	e := s.EnumerateContext(context.Background())
	for i := 0; i < 10; i++ {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	st := s.ReuseStats()
	if st.ConstrainedSolves == 0 {
		t.Fatal("enumeration ran no constrained solves")
	}
	perSolve := uint64(s.NumFullBlocks() + 1)
	if st.DirtyBlocks+st.ReusedBlocks != st.ConstrainedSolves*perSolve {
		t.Fatalf("dirty %d + reused %d != solves %d × blocks %d",
			st.DirtyBlocks, st.ReusedBlocks, st.ConstrainedSolves, perSolve)
	}
	if st.ReusedBlocks == 0 {
		t.Fatal("incremental solver reused no blocks")
	}
	if st.EmptySolves > st.ConstrainedSolves {
		t.Fatalf("empty solves %d exceed constrained solves %d", st.EmptySolves, st.ConstrainedSolves)
	}

	// Two disjoint cycles under fill decompose into per-atom sub-solvers;
	// their counters sum into the parent's.
	d := mustNew(disjointUnion(gen.Cycle(6), gen.Cycle(7)), cost.FillIn{})
	if !d.Decomposed() {
		t.Fatal("two disjoint cycles did not decompose")
	}
	collectEnumeration(d.EnumerateContext(context.Background()), 100)
	var sum ReuseStats
	for _, sub := range d.subs {
		sum.Add(sub.ReuseStats())
	}
	if got := d.ReuseStats(); got != sum || got.EmptyBranches == 0 {
		t.Fatalf("decomposed stats %+v, sub-solver sum %+v (want equal, with branches proven empty)", got, sum)
	}
}

// TestLeanSepCovMatchesOracle exhausts the sepCov precomputation budget
// so every separator's constraint geometry takes the lean path (masks
// derived from pair lists on demand) and asserts the enumeration is
// still identical to the from-scratch oracle.
func TestLeanSepCovMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g := gen.ConnectedGNP(rng, 9+rng.Intn(3), 0.25+0.2*rng.Float64())
		lean := mustNew(g, cost.FillIn{})
		lean.covBudget.Store(0)
		oracle := mustNew(g, cost.FillIn{})
		oracle.setFullResolve(true)
		const max = 200
		want := collectEnumeration(oracle.EnumerateContext(context.Background()), max)
		got := collectEnumeration(lean.EnumerateContext(context.Background()), max)
		if len(got) != len(want) {
			t.Fatalf("seed %d: lean emitted %d results, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: lean enumeration diverges at rank %d", seed, i)
			}
		}
	}
}
