package main

import (
	"fmt"

	"repro/internal/service"
)

// problem is what the checker knows about one submitted problem: the
// graph as the client numbered it, and the facts set-up established about
// the stream it must receive.
type problem struct {
	n     int
	edges [][2]int
	// ranked streams must never decrease in cost.
	ranked bool
	// ref is the cost by rank of the template's own stream (warm-serve);
	// nil when the problem has no template.
	ref []float64
	// total is the unreduced stream length an orbit drain's orbit_size
	// values must sum to; 0 when the request is not an orbit drain.
	total int64
	// csp holds the constraints a /v1/csp solve assignment must satisfy.
	csp []service.CSPConstraint
}

// streamSummary is the last line of an NDJSON response.
type streamSummary struct {
	Done      bool `json:"done"`
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
}

// delivery is everything one problem received within a visit: the result
// objects in delivered order (pages concatenated), plus the NDJSON summary
// or the CSP payoff when the endpoint sends one.
type delivery struct {
	prob    *problem
	results []service.TriangulationJSON
	diverse bool // a ?diverse= portfolio: ranks are picked, not contiguous
	summary *streamSummary
	csp     *service.CSPSolutionJSON
	wantCSP bool
}

// check applies every rule that concerns d and returns the first
// violation.
func check(d *delivery) error {
	p := d.prob
	for i := range d.results {
		r := &d.results[i]
		rank := i
		if d.diverse {
			rank = r.Index
		} else if r.Index != i {
			return fmt.Errorf("result %d carries index %d", i, r.Index)
		}
		if p.ranked && !d.diverse && i > 0 && r.Cost < d.results[i-1].Cost {
			return fmt.Errorf("rank %d cost %v below rank %d cost %v", i, r.Cost, i-1, d.results[i-1].Cost)
		}
		if p.ref != nil {
			if rank < 0 || rank >= len(p.ref) {
				return fmt.Errorf("rank %d outside the template's %d reference ranks", rank, len(p.ref))
			}
			if r.Cost != p.ref[rank] {
				return fmt.Errorf("rank %d cost %v, template has %v", rank, r.Cost, p.ref[rank])
			}
		}
		if err := checkCover(p, r); err != nil {
			return fmt.Errorf("rank %d: %v", rank, err)
		}
	}
	if d.diverse && len(d.results) > 0 && d.results[0].Index != 0 {
		return fmt.Errorf("diverse portfolio leads with rank %d, not the optimum", d.results[0].Index)
	}
	if d.summary != nil {
		if !d.summary.Done || d.summary.Truncated {
			return fmt.Errorf("stream summary reports done=%v truncated=%v", d.summary.Done, d.summary.Truncated)
		}
		if d.summary.Count != len(d.results) {
			return fmt.Errorf("stream summary counts %d results, %d delivered", d.summary.Count, len(d.results))
		}
	}
	if p.total > 0 {
		var sum int64
		for _, r := range d.results {
			if r.OrbitSize < 1 {
				return fmt.Errorf("orbit representative %d has orbit_size %d", r.Index, r.OrbitSize)
			}
			sum += r.OrbitSize
		}
		if sum != p.total {
			return fmt.Errorf("orbit sizes sum to %d, the unreduced stream has %d", sum, p.total)
		}
	}
	if d.wantCSP {
		return checkAssignment(p, d.csp)
	}
	return nil
}

// checkCover checks that every edge of the client's graph lies in some
// returned bag and that width is the largest bag size minus one.
func checkCover(p *problem, r *service.TriangulationJSON) error {
	words := (p.n + 63) / 64
	masks := make([]uint64, len(r.Bags)*words)
	largest := 0
	for b, bag := range r.Bags {
		if len(bag) > largest {
			largest = len(bag)
		}
		for _, v := range bag {
			if v < 0 || v >= p.n {
				return fmt.Errorf("bag vertex %d outside 0..%d", v, p.n-1)
			}
			masks[b*words+v/64] |= 1 << (v % 64)
		}
	}
	if r.Width != largest-1 {
		return fmt.Errorf("width %d, largest bag has %d vertices", r.Width, largest)
	}
	for _, e := range p.edges {
		covered := false
		for b := range r.Bags {
			m := masks[b*words : (b+1)*words]
			if m[e[0]/64]&(1<<(e[0]%64)) != 0 && m[e[1]/64]&(1<<(e[1]%64)) != 0 {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("edge %v lies in no bag", e)
		}
	}
	return nil
}

// checkAssignment checks a /v1/csp solve payoff against the constraints.
func checkAssignment(p *problem, sol *service.CSPSolutionJSON) error {
	if sol == nil || !sol.Satisfiable {
		return fmt.Errorf("csp solve reported no assignment for a satisfiable problem")
	}
	if len(sol.Assignment) != p.n {
		return fmt.Errorf("csp assignment has %d values for %d variables", len(sol.Assignment), p.n)
	}
	for i, c := range p.csp {
		pair := [2]int{sol.Assignment[c.Scope[0]], sol.Assignment[c.Scope[1]]}
		ok := false
		for _, a := range c.Allowed {
			if a == pair {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("csp constraint %d on %v rejects values %v", i, c.Scope, pair)
		}
	}
	return nil
}
