package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/chordal"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// This file is the oracle suite for the atom decomposition: on a corpus
// of random G(n,p), trees-plus-chords and disconnected graphs, the
// decomposed enumeration must be byte-identical to the noDecompose
// whole-graph enumeration — same count, same cost at every rank, and,
// after the tie-normalization below, the same triangulation (fill set,
// bags, separators) at every rank. It mirrors the setFullResolve oracle
// pattern of incremental_test.go.
//
// Within a run of equal-cost results the two machines order ties
// differently (Lawler–Murty insertion order vs product-frontier insertion
// order; both deterministic), so both streams are normalized by sorting
// each equal-cost run on the triangulation's canonical edge-set key
// before the rank-by-rank comparison. Costs are compared un-normalized.

const oracleCap = 6000 // outputs per enumeration; corpora stay well below

func drainAll(t *testing.T, s *Solver) []*Result {
	t.Helper()
	e := s.EnumerateContext(context.Background())
	var out []*Result
	for {
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, r)
		if len(out) > oracleCap {
			t.Fatalf("enumeration exceeded the oracle cap %d", oracleCap)
		}
	}
}

// normalizeTies sorts every run of equal-cost results by the canonical
// edge-set key of the triangulation, making the two machines' outputs
// directly comparable rank by rank.
func normalizeTies(rs []*Result) {
	i := 0
	for i < len(rs) {
		j := i
		for j < len(rs) && rs[j].Cost == rs[i].Cost {
			j++
		}
		sort.Slice(rs[i:j], func(a, b int) bool {
			return rs[i+a].H.EdgeSetKey() < rs[i+b].H.EdgeSetKey()
		})
		i = j
	}
}

func sepKeys(r *Result) []string {
	out := make([]string, len(r.Seps))
	for i, s := range r.Seps {
		out[i] = s.Key()
	}
	sort.Strings(out)
	return out
}

func bagKeys(r *Result) []string {
	out := make([]string, len(r.Bags))
	for i, b := range r.Bags {
		out[i] = b.Key()
	}
	sort.Strings(out)
	return out
}

// checkOracle asserts that the decomposed and noDecompose enumerations of
// g under c (and optional width bound) agree, and that every decomposed
// result is a well-formed clique tree of its triangulation.
func checkOracle(t *testing.T, g *graph.Graph, c cost.Cost, bound *int) (decomposed bool) {
	t.Helper()
	ctx := context.Background()
	dec, err := New(ctx, g, c, Options{WidthBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := New(ctx, g, c, Options{WidthBound: bound, noDecompose: true})
	if err != nil {
		t.Fatal(err)
	}

	got := drainAll(t, dec)
	want := drainAll(t, mono)
	if len(got) != len(want) {
		t.Fatalf("count: decomposed %d, monolithic %d (graph %q, cost %s)",
			len(got), len(want), g.EdgeSetKey(), c.Name())
	}
	for i := range got {
		if got[i].Cost != want[i].Cost {
			t.Fatalf("rank %d: cost %v vs %v (cost %s)", i, got[i].Cost, want[i].Cost, c.Name())
		}
	}
	normalizeTies(got)
	normalizeTies(want)
	seen := map[string]bool{}
	for i := range got {
		gk, wk := got[i].H.EdgeSetKey(), want[i].H.EdgeSetKey()
		if gk != wk {
			t.Fatalf("rank %d: triangulations differ after tie normalization (cost %s)", i, c.Name())
		}
		if seen[gk] {
			t.Fatalf("rank %d: duplicate triangulation emitted (cost %s)", i, c.Name())
		}
		seen[gk] = true
		if gf, wf := got[i].H.NumEdges(), want[i].H.NumEdges(); gf != wf {
			t.Fatalf("rank %d: fill %d vs %d", i, gf-g.NumEdges(), wf-g.NumEdges())
		}
		gb, wb := bagKeys(got[i]), bagKeys(want[i])
		gs, ws := sepKeys(got[i]), sepKeys(want[i])
		if len(gb) != len(wb) || len(gs) != len(ws) {
			t.Fatalf("rank %d: %d/%d bags, %d/%d seps", i, len(gb), len(wb), len(gs), len(ws))
		}
		for k := range gb {
			if gb[k] != wb[k] {
				t.Fatalf("rank %d: bag sets differ", i)
			}
		}
		for k := range gs {
			if gs[k] != ws[k] {
				t.Fatalf("rank %d: separator sets differ", i)
			}
		}
	}

	if dec.Decomposed() {
		// Structural validation of a sample of glued results: valid tree
		// decomposition, bags exactly the maximal cliques of H.
		for i := 0; i < len(got); i += 1 + len(got)/8 {
			r := got[i]
			if err := r.Tree.Validate(g); err != nil {
				t.Fatalf("rank %d: invalid glued tree: %v", i, err)
			}
			cliques, err := chordal.MaximalCliques(r.H)
			if err != nil {
				t.Fatalf("rank %d: combined H not chordal: %v", i, err)
			}
			if len(cliques) != len(r.Bags) {
				t.Fatalf("rank %d: %d bags, %d maximal cliques", i, len(r.Bags), len(cliques))
			}
			ck := map[string]bool{}
			for _, cl := range cliques {
				ck[cl.Key()] = true
			}
			for _, b := range r.Bags {
				if !ck[b.Key()] {
					t.Fatalf("rank %d: bag %v is not a maximal clique of H", i, b)
				}
			}
		}
		// The separator/PMC aggregates must be the monolithic sets.
		if ga, wa := len(dec.MinimalSeparators()), len(mono.MinimalSeparators()); ga != wa {
			t.Fatalf("aggregate seps %d vs %d", ga, wa)
		}
		if ga, wa := len(dec.PMCs()), len(mono.PMCs()); ga != wa {
			t.Fatalf("aggregate pmcs %d vs %d", ga, wa)
		}
	}
	return dec.Decomposed()
}

func oracleCosts() []cost.Cost {
	return []cost.Cost{cost.FillIn{}, cost.Width{}, cost.TotalStateSpace{}}
}

func TestAtomOracleGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	decomposed := 0
	for _, n := range []int{7, 8, 9} {
		for _, p := range []float64{0.2, 0.35, 0.5} {
			trials := 4
			if testing.Short() {
				trials = 1
			}
			for i := 0; i < trials; i++ {
				g := gen.GNP(rng, n, p)
				for _, c := range oracleCosts() {
					if checkOracle(t, g, c, nil) {
						decomposed++
					}
				}
			}
		}
	}
	if decomposed == 0 {
		t.Fatalf("oracle corpus never exercised the decomposed path")
	}
}

func TestAtomOracleTreesPlusChords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	decomposed := 0
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for i := 0; i < trials; i++ {
		g := gen.TreePlusChords(rng, 10, 2)
		for _, c := range oracleCosts() {
			if checkOracle(t, g, c, nil) {
				decomposed++
			}
		}
	}
	if decomposed == 0 {
		t.Fatalf("trees-plus-chords corpus never decomposed")
	}
}

func TestAtomOracleDisconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 8
	if testing.Short() {
		trials = 2
	}
	for i := 0; i < trials; i++ {
		// Two independent G(n,p) components sharing a universe.
		a, b := 4+rng.Intn(2), 4+rng.Intn(2)
		g := graph.New(a + b)
		for u := 0; u < a; u++ {
			for v := u + 1; v < a; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		for u := a; u < a+b; u++ {
			for v := u + 1; v < a+b; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		for _, c := range oracleCosts() {
			if !checkOracle(t, g, c, nil) {
				t.Fatalf("disconnected graph did not decompose")
			}
		}
	}
}

func TestAtomOracleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	decomposed := 0
	trials := 8
	if testing.Short() {
		trials = 2
	}
	for i := 0; i < trials; i++ {
		g := gen.TreePlusChords(rng, 9, 3)
		for _, b := range []int{2, 3, 4} {
			bound := b
			for _, c := range []cost.Cost{cost.FillIn{}, cost.Width{}} {
				if checkOracle(t, g, c, &bound) {
					decomposed++
				}
			}
		}
	}
	if decomposed == 0 {
		t.Fatalf("bounded corpus never decomposed")
	}
}

// TestAtomOracleParallelTopK asserts a decomposed enumeration's first 40
// results at four branch workers are exactly those at one — tie order
// included.
func TestAtomOracleParallelTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		g := gen.TreePlusChords(rng, 11, 3)
		s := mustNew(g, cost.FillIn{})
		if !s.Decomposed() {
			continue
		}
		seq := collectEnumeration(withWorkers(s.EnumerateContext(context.Background()), 1), 40)
		par := collectEnumeration(withWorkers(s.EnumerateContext(context.Background()), 4), 40)
		if len(seq) != len(par) {
			t.Fatalf("parallel prefix has %d results, sequential %d", len(par), len(seq))
		}
		for j := range seq {
			if seq[j] != par[j] {
				t.Fatalf("rank %d: parallel deviates from sequential", j)
			}
		}
	}
}

// TestAtomOracleConstrained routes [I, X] constraints through the
// decomposed MinTriang and compares the optimum against the monolithic
// solver under the same constraints.
func TestAtomOracleConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for i := 0; i < 10; i++ {
		g := gen.TreePlusChords(rng, 9, 2)
		dec := mustNew(g, cost.FillIn{})
		mono, _ := New(context.Background(), g, cost.FillIn{}, Options{noDecompose: true})
		if !dec.Decomposed() {
			continue
		}
		seps := mono.MinimalSeparators()
		if len(seps) == 0 {
			continue
		}
		for trial := 0; trial < 12; trial++ {
			cons := &cost.Constraints{}
			for _, s := range seps {
				switch rng.Intn(4) {
				case 0:
					cons.Include = append(cons.Include, s)
				case 1:
					cons.Exclude = append(cons.Exclude, s)
				}
			}
			rd, errD := dec.MinTriang(cons)
			rm, errM := mono.MinTriang(cons)
			if (errD != nil) != (errM != nil) {
				t.Fatalf("constrained feasibility differs: dec=%v mono=%v", errD, errM)
			}
			if errD == nil && rd.Cost != rm.Cost {
				t.Fatalf("constrained optimum differs: %v vs %v", rd.Cost, rm.Cost)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("constrained corpus never decomposed")
	}
}
