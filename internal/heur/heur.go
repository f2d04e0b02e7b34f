// Package heur implements the classic greedy triangulation heuristics the
// paper's introduction contrasts with ([2, 4]): min-degree and min-fill
// elimination orderings, and the width of the tree decomposition the
// elimination game induces under them. They give fast (not necessarily
// optimal) widths that serve as quality baselines for the exact
// machinery — and as seeds an application can compare against the ranked
// stream. triang.LBTriang under such an order yields a minimal
// triangulation.
package heur

import (
	"repro/internal/graph"
	"repro/internal/vset"
)

// Strategy selects the greedy vertex-elimination rule.
type Strategy int

// Available strategies.
const (
	// MinDegree eliminates a vertex of minimum current degree.
	MinDegree Strategy = iota
	// MinFill eliminates a vertex whose elimination adds the fewest fill
	// edges to its current neighborhood.
	MinFill
)

func (s Strategy) String() string {
	if s == MinDegree {
		return "min-degree"
	}
	return "min-fill"
}

// Order computes the greedy elimination order of g under the strategy.
// Ties break toward the smallest vertex number, so the result is
// deterministic.
func Order(g *graph.Graph, s Strategy) []int {
	h := g.Clone()
	remaining := g.Vertices().Clone()
	order := make([]int, 0, remaining.Len())
	for !remaining.IsEmpty() {
		best, bestScore := -1, int(^uint(0)>>1)
		remaining.ForEach(func(v int) bool {
			var score int
			switch s {
			case MinDegree:
				score = h.Neighbors(v).IntersectionLen(remaining)
			case MinFill:
				score = fillOf(h, v, remaining)
			}
			if score < bestScore {
				best, bestScore = v, score
			}
			return true
		})
		order = append(order, best)
		nv := h.Neighbors(best).Intersect(remaining)
		h.SaturateInPlace(nv)
		remaining.RemoveInPlace(best)
	}
	return order
}

// fillOf counts the missing pairs in v's remaining neighborhood.
func fillOf(h *graph.Graph, v int, remaining vset.Set) int {
	nv := h.Neighbors(v).Intersect(remaining)
	return h.MissingPairsWithin(nv)
}

// Width returns the width of the elimination order on g: the maximum
// remaining-neighborhood size encountered — the width of the induced tree
// decomposition.
func Width(g *graph.Graph, order []int) int {
	h := g.Clone()
	remaining := g.Vertices().Clone()
	w := 0
	for _, v := range order {
		nv := h.Neighbors(v).Intersect(remaining)
		if nv.Len() > w {
			w = nv.Len()
		}
		h.SaturateInPlace(nv)
		remaining.RemoveInPlace(v)
	}
	return w
}
