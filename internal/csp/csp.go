// Package csp solves and counts binary constraint-satisfaction problems
// by dynamic programming over a tree decomposition of the constraint
// graph — the CSP application of tree decompositions the paper cites
// (Kolaitis–Vardi). The DP runs over any valid decomposition, so the
// ranked enumeration can be used to pick the bag structure that minimizes
// the DP's actual table work.
package csp

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/td"
)

// Problem is a binary CSP: per-variable finite domains and binary
// constraints given as allowed value pairs.
type Problem struct {
	Domains     []int // domain size per variable; values are 0..d-1
	constraints map[[2]int]map[[2]int]bool
}

// NewProblem creates a CSP over len(domains) variables.
func NewProblem(domains []int) *Problem {
	return &Problem{
		Domains:     append([]int(nil), domains...),
		constraints: map[[2]int]map[[2]int]bool{},
	}
}

// Constrain marks the pair (x, y) as constrained without allowing any
// combination yet. Until Allow adds tuples the pair admits nothing —
// a trivially unsatisfiable constraint — whereas an untouched pair
// permits every combination. It is the explicit form of the switch the
// first Allow call performs, and the only way to express an empty
// allowed set (which wire decoders need: a constraint arriving with zero
// allowed tuples must not silently mean "unconstrained").
func (p *Problem) Constrain(x, y int) {
	if x == y {
		panic("csp: unary constraints are modeled by shrinking the domain")
	}
	if x > y {
		x, y = y, x
	}
	key := [2]int{x, y}
	if p.constraints[key] == nil {
		p.constraints[key] = map[[2]int]bool{}
	}
}

// Allow declares that (x=a, y=b) is an allowed combination. The first
// Allow or Constrain call for a pair (x, y) switches that pair from
// "unconstrained" to "only explicitly allowed combinations".
func (p *Problem) Allow(x, y int, a, b int) {
	if x > y {
		x, y = y, x
		a, b = b, a
	}
	p.Constrain(x, y)
	p.constraints[[2]int{x, y}][[2]int{a, b}] = true
}

// AllowFunc bulk-declares allowed combinations for the pair via a
// predicate.
func (p *Problem) AllowFunc(x, y int, ok func(a, b int) bool) {
	for a := 0; a < p.Domains[x]; a++ {
		for b := 0; b < p.Domains[y]; b++ {
			if ok(a, b) {
				p.Allow(x, y, a, b)
			}
		}
	}
}

// compatible reports whether the pairwise assignment is allowed.
func (p *Problem) compatible(x, y, a, b int) bool {
	if x > y {
		x, y = y, x
		a, b = b, a
	}
	rel, ok := p.constraints[[2]int{x, y}]
	if !ok {
		return true
	}
	return rel[[2]int{a, b}]
}

// ConstraintGraph returns the primal constraint graph: variables adjacent
// iff a constraint relates them.
func (p *Problem) ConstraintGraph() *graph.Graph {
	g := graph.New(len(p.Domains))
	for key := range p.constraints {
		if !g.HasEdge(key[0], key[1]) {
			g.AddEdge(key[0], key[1])
		}
	}
	return g
}

// ErrNotADecomposition reports that the supplied decomposition does not
// cover the constraint graph.
var ErrNotADecomposition = errors.New("csp: decomposition does not cover the constraint graph")

// Count returns the number of satisfying assignments using DP over the
// decomposition d, which must be a tree decomposition of the constraint
// graph. Complexity is O(nodes · Π domain^bagsize).
func (p *Problem) Count(d *td.Decomposition) (int64, error) {
	s, err := p.prepare(d)
	if err != nil {
		return 0, err
	}
	total := int64(1)
	for _, root := range s.roots {
		table := s.solve(root, -1)
		sum := int64(0)
		for _, c := range table.counts {
			sum += c
		}
		total *= sum
	}
	// Variables outside every bag are unconstrained free variables.
	for v, covered := range s.covered {
		if !covered {
			total *= int64(p.Domains[v])
		}
	}
	return total, nil
}

// Solve returns one satisfying assignment, or ok=false if none exists.
func (p *Problem) Solve(d *td.Decomposition) ([]int, bool, error) {
	s, err := p.prepare(d)
	if err != nil {
		return nil, false, err
	}
	assign := make([]int, len(p.Domains))
	for i := range assign {
		assign[i] = -1
	}
	for _, root := range s.roots {
		table := s.solve(root, -1)
		found := false
		for idx, c := range table.counts {
			if c > 0 {
				s.trace(root, -1, idx, assign)
				found = true
				break
			}
		}
		if !found {
			return nil, false, nil
		}
	}
	for v := range assign {
		if assign[v] == -1 {
			assign[v] = 0 // unconstrained
		}
	}
	return assign, true, nil
}

// state is the prepared DP context.
type state struct {
	p       *Problem
	d       *td.Decomposition
	bags    [][]int // sorted vertex lists per node
	roots   []int
	parent  []int
	covered []bool
	memo    map[int]*bagTable
}

// bagTable maps flat indices of bag assignments to subtree counts.
type bagTable struct {
	vars   []int
	counts []int64
}

func (p *Problem) prepare(d *td.Decomposition) (*state, error) {
	for _, b := range d.Bags {
		if b.Universe() != len(p.Domains) {
			return nil, fmt.Errorf("%w: decomposition universe %d vs %d variables",
				ErrNotADecomposition, b.Universe(), len(p.Domains))
		}
	}
	g := p.ConstraintGraph()
	if err := d.Validate(g.InducedSubgraph(d.CoveredVertices(g.Universe()))); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotADecomposition, err)
	}
	// Every constraint edge must be inside some bag.
	for key := range p.constraints {
		ok := false
		for _, b := range d.Bags {
			if b.Contains(key[0]) && b.Contains(key[1]) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, ErrNotADecomposition
		}
	}
	n := d.NumNodes()
	s := &state{
		p:       p,
		d:       d,
		bags:    make([][]int, n),
		parent:  make([]int, n),
		covered: make([]bool, len(p.Domains)),
		memo:    map[int]*bagTable{},
	}
	for i, b := range d.Bags {
		s.bags[i] = b.Slice()
		for _, v := range s.bags[i] {
			s.covered[v] = true
		}
		s.parent[i] = -2
	}
	for i := 0; i < n; i++ {
		if s.parent[i] != -2 {
			continue
		}
		s.roots = append(s.roots, i)
		s.parent[i] = -1
		queue := []int{i}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range d.Adj[x] {
				if s.parent[y] == -2 {
					s.parent[y] = x
					queue = append(queue, y)
				}
			}
		}
	}
	return s, nil
}

// solve computes the DP table of node x (with given parent) bottom-up.
func (s *state) solve(x, parent int) *bagTable {
	if t, ok := s.memo[x]; ok {
		return t
	}
	vars := s.bags[x]
	size := 1
	for _, v := range vars {
		size *= s.p.Domains[v]
	}
	table := &bagTable{vars: vars, counts: make([]int64, size)}
	children := make([]*bagTable, 0, len(s.d.Adj[x]))
	childNodes := make([]int, 0, len(s.d.Adj[x]))
	for _, y := range s.d.Adj[x] {
		if y != parent {
			children = append(children, s.solve(y, x))
			childNodes = append(childNodes, y)
		}
	}
	assign := make([]int, len(vars))
	for idx := 0; idx < size; idx++ {
		decode(idx, vars, s.p.Domains, assign)
		if !s.consistent(vars, assign) {
			continue
		}
		count := int64(1)
		for ci, child := range children {
			count *= s.childSum(childNodes[ci], child, vars, assign)
			if count == 0 {
				break
			}
		}
		table.counts[idx] = count
	}
	s.memo[x] = table
	return table
}

// childSum adds up the child's counts over assignments agreeing with the
// parent's assignment on the shared variables — but dividing out nothing:
// shared variables are fixed, so only matching entries contribute.
func (s *state) childSum(childNode int, child *bagTable, vars []int, assign []int) int64 {
	pos := map[int]int{}
	for i, v := range vars {
		pos[v] = i
	}
	sum := int64(0)
	childAssign := make([]int, len(child.vars))
	for idx, c := range child.counts {
		if c == 0 {
			continue
		}
		decode(idx, child.vars, s.p.Domains, childAssign)
		ok := true
		for i, v := range child.vars {
			if j, shared := pos[v]; shared && childAssign[i] != assign[j] {
				ok = false
				break
			}
		}
		if ok {
			sum += c
		}
	}
	return sum
}

// consistent checks all constraints internal to the bag assignment.
func (s *state) consistent(vars []int, assign []int) bool {
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			if !s.p.compatible(vars[i], vars[j], assign[i], assign[j]) {
				return false
			}
		}
	}
	return true
}

// trace reconstructs one satisfying assignment from the solved tables.
func (s *state) trace(x, parent, idx int, out []int) {
	vars := s.bags[x]
	assign := make([]int, len(vars))
	decode(idx, vars, s.p.Domains, assign)
	for i, v := range vars {
		out[v] = assign[i]
	}
	for _, y := range s.d.Adj[x] {
		if y == parent {
			continue
		}
		child := s.memo[y]
		childAssign := make([]int, len(child.vars))
		for cidx, c := range child.counts {
			if c == 0 {
				continue
			}
			decode(cidx, child.vars, s.p.Domains, childAssign)
			// The child entry must agree with the parent bag on shared
			// variables; by the junction property those are the only
			// already-assigned variables the child can see.
			ok := true
			for i, v := range child.vars {
				if contains(vars, v) && childAssign[i] != out[v] {
					ok = false
					break
				}
			}
			if ok {
				s.trace(y, x, cidx, out)
				break
			}
		}
	}
}

func contains(vs []int, v int) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// decode expands a flat index into an assignment aligned with vars.
func decode(idx int, vars []int, domains []int, out []int) {
	for i := len(vars) - 1; i >= 0; i-- {
		d := domains[vars[i]]
		out[i] = idx % d
		idx /= d
	}
}
