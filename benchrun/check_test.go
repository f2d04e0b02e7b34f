package main

import (
	"strings"
	"testing"

	"repro/internal/service"
)

// c4 is the 4-cycle 0-1-2-3-0 with its two minimal triangulations as a
// ranked stream of made-up costs 1 and 2.
func c4() (*problem, []service.TriangulationJSON) {
	p := &problem{n: 4, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}, ranked: true, ref: []float64{1, 2}}
	rs := []service.TriangulationJSON{
		{Index: 0, Cost: 1, Width: 2, Fill: 1, OrbitSize: 1, Bags: [][]int{{0, 1, 2}, {0, 2, 3}}},
		{Index: 1, Cost: 2, Width: 2, Fill: 1, OrbitSize: 1, Bags: [][]int{{0, 1, 3}, {1, 2, 3}}},
	}
	return p, rs
}

// colouringAssignment is a proper 3-colouring of the 4-cycle.
func colouringProblem() (*problem, *service.CSPSolutionJSON) {
	p, _ := c4()
	p.ref = nil
	for _, e := range p.edges {
		p.csp = append(p.csp, service.CSPConstraint{Scope: e, Allowed: [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}})
	}
	return p, &service.CSPSolutionJSON{Satisfiable: true, Assignment: []int{0, 1, 0, 1}}
}

func TestCheckerCatchesCorruptedResponses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func() *delivery
		want    string // substring of the error; "" means the delivery is valid
	}{
		{"valid stream", func() *delivery {
			p, rs := c4()
			p.total = 2
			return &delivery{prob: p, results: rs, summary: &streamSummary{Done: true, Count: 2}}
		}, ""},
		{"two ranks swapped", func() *delivery {
			p, rs := c4()
			rs[0], rs[1] = rs[1], rs[0]
			rs[0].Index, rs[1].Index = 0, 1
			return &delivery{prob: p, results: rs}
		}, "cost"},
		{"one vertex relabeled wrongly", func() *delivery {
			p, rs := c4()
			rs[0].Bags[1] = []int{0, 2, 1}
			return &delivery{prob: p, results: rs}
		}, "lies in no bag"},
		{"orbit sizes off by one", func() *delivery {
			p, rs := c4()
			p.total = 2
			rs[1].OrbitSize = 2
			return &delivery{prob: p, results: rs}
		}, "orbit sizes sum to 3"},
		{"violated constraint", func() *delivery {
			p, sol := colouringProblem()
			sol.Assignment = []int{0, 0, 1, 2}
			return &delivery{prob: p, csp: sol, wantCSP: true}
		}, "rejects values"},
		{"proper colouring", func() *delivery {
			p, sol := colouringProblem()
			return &delivery{prob: p, csp: sol, wantCSP: true}
		}, ""},
		{"summary undercounts", func() *delivery {
			p, rs := c4()
			return &delivery{prob: p, results: rs, summary: &streamSummary{Done: true, Count: 1}}
		}, "counts 1 results"},
		{"width disagrees with bags", func() *delivery {
			p, rs := c4()
			rs[1].Width = 1
			return &delivery{prob: p, results: rs}
		}, "width 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check(tc.corrupt())
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid delivery rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("corruption not caught")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("caught with %q, want it to mention %q", err, tc.want)
			}
		})
	}
}
