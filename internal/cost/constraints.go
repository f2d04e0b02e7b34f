package cost

import (
	"repro/internal/graph"
	"repro/internal/vset"
)

// Constraints is a pair [I, X] of inclusion and exclusion constraints over
// minimal triangulations (Section 6 of the paper). Each member is a
// minimal separator of the input graph. A triangulation H satisfies the
// pair iff every S ∈ I with S ⊆ V(H) is a clique of H and every S ∈ X with
// S ⊆ V(H) is not.
//
// The Lawler–Murty enumeration compiles these into the cost function
// (κ[I,X], Lemma 6.2): the dynamic program compiles each pair into
// per-separator pair-coverage masks (core's compileConstraints) and never
// calls Satisfied, which checks a finished triangulation directly.
type Constraints struct {
	Include []vset.Set
	Exclude []vset.Set
}

// IsEmpty reports whether no constraints are present.
func (c *Constraints) IsEmpty() bool {
	return c == nil || (len(c.Include) == 0 && len(c.Exclude) == 0)
}

// Clone returns a copy sharing the underlying separator sets (which are
// treated as immutable).
func (c *Constraints) Clone() *Constraints {
	if c == nil {
		return &Constraints{}
	}
	return &Constraints{
		Include: append([]vset.Set(nil), c.Include...),
		Exclude: append([]vset.Set(nil), c.Exclude...),
	}
}

// WithInclude returns c extended with an inclusion constraint.
func (c *Constraints) WithInclude(s vset.Set) *Constraints {
	out := c.Clone()
	out.Include = append(out.Include, s)
	return out
}

// WithExclude returns c extended with an exclusion constraint.
func (c *Constraints) WithExclude(s vset.Set) *Constraints {
	out := c.Clone()
	out.Exclude = append(out.Exclude, s)
	return out
}

// Satisfied reports whether a triangulation h of g satisfies [I, X]:
// inclusion separators must be cliques of h, exclusion separators must not.
func (c *Constraints) Satisfied(h *graph.Graph) bool {
	if c.IsEmpty() {
		return true
	}
	for _, s := range c.Include {
		if s.SubsetOf(h.Vertices()) && !h.IsClique(s) {
			return false
		}
	}
	for _, s := range c.Exclude {
		if s.SubsetOf(h.Vertices()) && h.IsClique(s) {
			return false
		}
	}
	return true
}
