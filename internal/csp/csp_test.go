package csp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// mustSolver builds an unbounded solver over a background context, which
// cannot fail.
func mustSolver(g *graph.Graph, c cost.Cost) *core.Solver {
	s, err := core.New(context.Background(), g, c, core.Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// bruteCount enumerates all assignments.
func bruteCount(p *Problem) int64 {
	n := len(p.Domains)
	assign := make([]int, n)
	var count int64
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			count++
			return
		}
		for x := 0; x < p.Domains[v]; x++ {
			assign[v] = x
			ok := true
			for u := 0; u < v; u++ {
				if !p.compatible(u, v, assign[u], x) {
					ok = false
					break
				}
			}
			if ok {
				rec(v + 1)
			}
		}
	}
	rec(0)
	return count
}

func decompose(t *testing.T, p *Problem) *core.Result {
	t.Helper()
	g := p.ConstraintGraph()
	r, err := mustSolver(g, cost.TotalStateSpace{Domain: p.Domains}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestColoringCycle(t *testing.T) {
	// 3-coloring of C5: 30 proper colorings.
	p := NewProblem([]int{3, 3, 3, 3, 3})
	for i := 0; i < 5; i++ {
		j := (i + 1) % 5
		p.AllowFunc(i, j, func(a, b int) bool { return a != b })
	}
	r := decompose(t, p)
	count, err := p.Count(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("3-colorings of C5 = %d, want 30", count)
	}
	assign, ok, err := p.Solve(r.Tree)
	if err != nil || !ok {
		t.Fatalf("solve failed: %v %v", ok, err)
	}
	for i := 0; i < 5; i++ {
		if assign[i] == assign[(i+1)%5] {
			t.Fatalf("invalid coloring %v", assign)
		}
	}
}

func TestUnsatisfiable(t *testing.T) {
	// 2-coloring of a triangle: impossible.
	p := NewProblem([]int{2, 2, 2})
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		p.AllowFunc(e[0], e[1], func(a, b int) bool { return a != b })
	}
	r := decompose(t, p)
	count, err := p.Count(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("2-coloring K3 count = %d", count)
	}
	if _, ok, _ := p.Solve(r.Tree); ok {
		t.Fatalf("unsatisfiable CSP solved")
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		domains := make([]int, n)
		for i := range domains {
			domains[i] = 2 + rng.Intn(2)
		}
		p := NewProblem(domains)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					continue // unconstrained pair
				}
				dense := rng.Float64()
				p.AllowFunc(u, v, func(a, b int) bool { return rng.Float64() < 0.4+dense*0.5 })
			}
		}
		want := bruteCount(p)
		r := decompose(t, p)
		got, err := p.Count(r.Tree)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: DP count %d, brute force %d", trial, got, want)
		}
		assign, ok, err := p.Solve(r.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (want > 0) {
			t.Fatalf("trial %d: solvability mismatch", trial)
		}
		if ok {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if !p.compatible(u, v, assign[u], assign[v]) {
						t.Fatalf("trial %d: invalid solution", trial)
					}
				}
			}
		}
	}
}

func TestCountSameOverAllRankedDecompositions(t *testing.T) {
	// The count is decomposition-independent: verify over the whole
	// ranked stream of a C6 coloring problem.
	p := NewProblem([]int{3, 3, 3, 3, 3, 3})
	for i := 0; i < 6; i++ {
		p.AllowFunc(i, (i+1)%6, func(a, b int) bool { return a != b })
	}
	want := bruteCount(p)
	g := p.ConstraintGraph()
	s := mustSolver(g, cost.Width{})
	e := s.EnumerateContext(context.Background())
	trees := 0
	for {
		r, ok := e.Next()
		if !ok {
			break
		}
		trees++
		got, err := p.Count(r.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("tree %d: count %d, want %d", trees, got, want)
		}
	}
	if trees != 14 {
		t.Fatalf("C6 trees = %d", trees)
	}
}

func TestFreeVariables(t *testing.T) {
	// Variables with no constraints multiply the count by their domain.
	p := NewProblem([]int{3, 2, 5})
	p.AllowFunc(0, 1, func(a, b int) bool { return a != b })
	r := decompose(t, p) // constraint graph covers only 0,1
	count, err := p.Count(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// (3·2 - 2 equal... a≠b over 3×2: 3·2 - min(3,2)=... pairs with a==b:
	// b∈{0,1} → 2 disallowed → 4 allowed) × 5 free = 20.
	if count != 20 {
		t.Fatalf("count = %d, want 20", count)
	}
}

func TestBadDecomposition(t *testing.T) {
	p := NewProblem([]int{2, 2})
	p.AllowFunc(0, 1, func(a, b int) bool { return true })
	other := NewProblem([]int{2, 2, 2})
	other.AllowFunc(0, 2, func(a, b int) bool { return true })
	r := decompose(t, other)
	if _, err := p.Count(r.Tree); err == nil {
		t.Fatalf("foreign decomposition accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	domains := []int{3, 2, 4}
	vars := []int{2, 0, 1}
	out := make([]int, 3)
	for idx := 0; idx < 4*3*2; idx++ {
		decode(idx, vars, domains, out)
		if got := encodeAligned(vars, domains, out); got != idx {
			t.Fatalf("round trip %d → %v → %d", idx, out, got)
		}
	}
}

func TestPetersenColoringPipeline(t *testing.T) {
	// 3-color the Petersen graph (treewidth 4) through a ranked
	// decomposition — an end-to-end CSP workload on a PACE-style instance.
	g, err := gen.Named("petersen")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	domains := make([]int, n)
	for i := range domains {
		domains[i] = 3
	}
	p := NewProblem(domains)
	for _, e := range g.Edges() {
		p.AllowFunc(e[0], e[1], func(a, b int) bool { return a != b })
	}
	r, err := mustSolver(p.ConstraintGraph(), cost.Width{}).MinTriang(nil)
	if err != nil {
		t.Fatal(err)
	}
	assign, ok, err := p.Solve(r.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("petersen is 3-colorable, solver said no")
	}
	for _, e := range g.Edges() {
		if assign[e[0]] == assign[e[1]] {
			t.Fatalf("invalid coloring")
		}
	}
}

func TestAllowPanicsOnUnary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewProblem([]int{2}).Allow(0, 0, 0, 0)
}

// encodeAligned is the inverse of decode.
func encodeAligned(vars []int, domains []int, assign []int) int {
	idx := 0
	for i, v := range vars {
		idx = idx*domains[v] + assign[i]
	}
	return idx
}
