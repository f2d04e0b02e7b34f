package core

import (
	"context"

	"repro/internal/chordal"
	"repro/internal/td"
)

// TDEnumerator streams the proper tree decompositions of the solver's
// graph by increasing cost — Proposition 6.1 of the paper: proper tree
// decompositions are exactly the clique trees of minimal triangulations,
// clique-tree sets of distinct minimal triangulations are disjoint, and a
// bag cost gives every clique tree of one triangulation the same cost, so
// interleaving the two enumerations preserves the ranked order.
type TDEnumerator struct {
	inner *Enumerator
	cur   *Result
	ct    *chordal.CliqueTreeEnumerator
}

// EnumerateProperTDs starts the ranked enumeration of the proper tree
// decompositions of the solver's graph.
func (s *Solver) EnumerateProperTDs() *TDEnumerator {
	return &TDEnumerator{inner: s.EnumerateContext(context.TODO())}
}

// Next returns the next proper tree decomposition together with the
// minimal triangulation it is a clique tree of, or ok=false at the end.
func (t *TDEnumerator) Next() (*td.Decomposition, *Result, bool) {
	for {
		if t.ct != nil {
			if d, ok := t.ct.Next(); ok {
				return d, t.cur, true
			}
			t.ct = nil
		}
		r, ok := t.inner.Next()
		if !ok {
			return nil, nil, false
		}
		ct, err := chordal.EnumerateCliqueTrees(r.H)
		if err != nil {
			// The solver emits chordal graphs by construction.
			panic("core: enumerated triangulation is not chordal: " + err.Error())
		}
		t.cur = r
		t.ct = ct
	}
}
