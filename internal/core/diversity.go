package core

import (
	"context"

	"repro/internal/graph"
)

// FillDistance is the diversification metric suggested by the paper's
// concluding remarks, made concrete: the size of the symmetric difference
// of the two triangulations' fill sets. Two triangulations at distance 0
// are identical (Parra–Scheffler: a minimal triangulation is determined by
// its fill set).
func FillDistance(g *graph.Graph, a, b *Result) int {
	fills := func(h *graph.Graph) map[[2]int]bool {
		out := map[[2]int]bool{}
		for _, e := range h.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				out[e] = true
			}
		}
		return out
	}
	fa, fb := fills(a.H), fills(b.H)
	d := 0
	for e := range fa {
		if !fb[e] {
			d++
		}
	}
	for e := range fb {
		if !fa[e] {
			d++
		}
	}
	return d
}

// DiverseSelect greedily picks up to k indices into pool maximizing the
// minimum pairwise fill distance of the picked triangulations, always
// keeping index 0 (the ranked optimum) first. The returned indices are in
// selection order — the optimum, then each pick maximizing its distance
// to everything chosen so far — so a prefix of the selection is itself a
// valid (smaller) diverse portfolio. When the pool holds k or fewer
// results every index is returned in rank order: there is nothing to
// choose between.
//
// The pool is any ranked (or merely deterministic) prefix of an
// enumeration: Solver.DiverseTopK feeds it from TopK, and the serving
// tier feeds it from a shared materialized stream so the diversification
// window is cached and deduplicated across clients like any other read.
func DiverseSelect(g *graph.Graph, pool []*Result, k int) []int {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	if len(pool) <= k {
		out := make([]int, len(pool))
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := []int{0} // the optimum is non-negotiable
	used := map[int]bool{0: true}
	for len(chosen) < k {
		bestIdx, bestDist := -1, -1
		for i, cand := range pool {
			if used[i] {
				continue
			}
			minDist := int(^uint(0) >> 1)
			for _, c := range chosen {
				if d := FillDistance(g, cand, pool[c]); d < minDist {
					minDist = d
				}
			}
			if minDist > bestDist {
				bestIdx, bestDist = i, minDist
			}
		}
		if bestIdx == -1 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
	}
	return chosen
}

// DiverseTopK addresses the diversification question of the paper's
// concluding remarks: among the `window` cheapest minimal triangulations,
// greedily select k that maximize the minimum pairwise fill distance,
// always keeping the overall optimum first. The result is a small
// portfolio of cheap-but-structurally-different decompositions for the
// application to evaluate, rather than k near-duplicates.
//
// window ≤ 0 means 4k. The enumeration stops early when the space is
// exhausted.
func (s *Solver) DiverseTopK(k, window int) []*Result {
	if k <= 0 {
		return nil
	}
	if window < k {
		window = 4 * k
	}
	pool := s.TopK(context.TODO(), window, 0)
	idx := DiverseSelect(s.g, pool, k)
	out := make([]*Result, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}
