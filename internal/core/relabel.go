package core

import (
	"repro/internal/td"
	"repro/internal/vset"
)

// RelabelResult returns a copy of r with every vertex v renamed to
// perm[v]: the triangulation H, the clique tree's bags (tree edges keep
// their node indices — only bag contents carry vertex labels), and the
// bag and separator lists all map through perm. Cost is copied unchanged
// — every cost in this repository is label-invariant once its parameters
// (domains, hyperedges) are expressed in the same labeling, which the
// serving tier guarantees by relabeling those parameters alongside the
// graph on ingress.
//
// The serving tier solves and materializes streams in canonical labels.
// Its egress does not call this: it writes each wire result's bags and
// separators straight from the canonical result through the inverse
// permutation. RelabelResult is for callers that need a whole result,
// the decomposition tree included, in another labeling, such as the
// /v1/csp payoff DP over the top-ranked result. The solver-internal
// separator IDs are deliberately dropped (they are meaningless outside
// the solver that interned them).
func RelabelResult(r *Result, perm []int) *Result {
	out := &Result{Cost: r.Cost, OrbitSize: r.OrbitSize}
	if r.H != nil {
		out.H = r.H.Relabel(perm)
	}
	if r.Tree != nil {
		tree := &td.Decomposition{
			Bags: relabelSets(r.Tree.Bags, perm),
			Adj:  make([][]int, len(r.Tree.Adj)),
		}
		for i, nb := range r.Tree.Adj {
			tree.Adj[i] = append([]int(nil), nb...)
		}
		out.Tree = tree
	}
	out.Bags = relabelSets(r.Bags, perm)
	out.Seps = relabelSets(r.Seps, perm)
	return out
}

func relabelSets(sets []vset.Set, perm []int) []vset.Set {
	if sets == nil {
		return nil
	}
	out := make([]vset.Set, len(sets))
	for i, s := range sets {
		out[i] = s.Relabel(perm)
	}
	return out
}
