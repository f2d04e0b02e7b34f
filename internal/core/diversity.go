package core

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// FillDistance is the diversification metric suggested by the paper's
// concluding remarks, made concrete: the size of the symmetric difference
// of the two triangulations' fill sets. Two triangulations at distance 0
// are identical (Parra–Scheffler: a minimal triangulation is determined by
// its fill set).
func FillDistance(g *graph.Graph, a, b *Result) int {
	stride := fillStride(g)
	rows := make([]uint64, 2*stride)
	fillRows(g, a.H, rows[:stride])
	fillRows(g, b.H, rows[stride:])
	return rowDistance(rows[:stride], rows[stride:])
}

// fillStride is the length of one triangulation's fill rows over g: one
// row of ⌈n/64⌉ words per vertex of g's universe.
func fillStride(g *graph.Graph) int {
	n := g.Universe()
	return n * ((n + 63) / 64)
}

// fillRows writes the fill of the triangulation h of g into dst as
// adjacency rows: row v holds v's neighbours in h that are not its
// neighbours in g. Rows of vertices h does not have are left untouched,
// so dst must start zeroed. Every fill edge {u, v} sets one bit in row u
// and one in row v.
func fillRows(g, h *graph.Graph, dst []uint64) {
	w := (g.Universe() + 63) / 64
	h.Vertices().ForEach(func(v int) bool {
		hw, gw := h.Neighbors(v).Words(), g.Neighbors(v).Words()
		row := dst[v*w : (v+1)*w]
		for i := range row {
			row[i] = hw[i] &^ gw[i]
		}
		return true
	})
}

// rowDistance is the fill distance between two triangulations given by
// their fill rows: each edge of the symmetric difference differs in two
// rows, so it is half the popcount of the rows' XOR.
func rowDistance(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d / 2
}

// DiverseSelect greedily picks up to k indices into pool maximizing the
// minimum pairwise fill distance of the picked triangulations, always
// keeping index 0 (the ranked optimum) first. The returned indices are in
// selection order — the optimum, then each pick maximizing its distance
// to everything chosen so far, the lowest index winning a tie — so a
// prefix of the selection is itself a valid (smaller) diverse portfolio.
// When the pool holds k or fewer results every index is returned in rank
// order: there is nothing to choose between.
//
// Each member's fill rows are computed once (len(pool) · n · ⌈n/64⌉
// words), and each candidate keeps its distance to the nearest pick,
// updated against the newest pick only: O(len(pool) · k) row distances
// in all.
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
	stride := fillStride(g)
	rows := make([]uint64, len(pool)*stride)
	member := func(i int) []uint64 { return rows[i*stride : (i+1)*stride] }
	for i, r := range pool {
		fillRows(g, r.H, member(i))
	}
	// nearest[i] is candidate i's distance to its nearest pick; -1 marks
	// a pick.
	nearest := make([]int, len(pool))
	for i := range nearest {
		nearest[i] = math.MaxInt
	}
	chosen := make([]int, 0, k)
	for pick := 0; ; { // the optimum is non-negotiable
		chosen = append(chosen, pick)
		if len(chosen) == k {
			return chosen
		}
		nearest[pick] = -1
		newest := member(pick)
		for i, d := range nearest {
			if d > 0 { // skips picks, and a zero cannot fall further
				nearest[i] = min(d, rowDistance(member(i), newest))
			}
		}
		pick = -1
		for i, d := range nearest {
			if d >= 0 && (pick < 0 || d > nearest[pick]) {
				pick = i
			}
		}
	}
}

// DiverseTopK addresses the diversification question of the paper's
// concluding remarks: among the `window` cheapest minimal triangulations,
// greedily select k that maximize the minimum pairwise fill distance,
// always keeping the overall optimum first. The result is a small
// portfolio of cheap-but-structurally-different decompositions for the
// application to evaluate, rather than k near-duplicates.
//
// A window below k, zero and negative included, means 4k. The
// enumeration stops early when the space is exhausted.
func (s *Solver) DiverseTopK(k, window int) []*Result {
	if k <= 0 {
		return nil
	}
	if window < k {
		window = 4 * k
	}
	pool := s.TopK(context.TODO(), window)
	idx := DiverseSelect(s.g, pool, k)
	out := make([]*Result, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}
