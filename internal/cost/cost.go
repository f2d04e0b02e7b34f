// Package cost defines the split-monotone bag costs of Section 3 of the
// paper and the inclusion/exclusion constraints of Section 6.1.
//
// A bag cost depends only on the set of bags of a tree decomposition
// (invariance under bag equivalence), so a Cost evaluates on a graph and a
// bag collection. Costs that additionally decompose as a max-term plus an
// additive term per bag implement Combinable, which lets the MinTriang
// dynamic program combine sub-solutions in O(|Ω|²) instead of re-evaluating
// whole decompositions.
package cost

import (
	"math"

	"repro/internal/graph"
	"repro/internal/vset"
)

// Cost is a split-monotone bag cost κ(G, T). Implementations must be
// invariant under bag equivalence: only the set of bags matters.
// Eval may return +Inf to mark a decomposition inadmissible.
type Cost interface {
	// Name identifies the cost in logs and experiment tables.
	Name() string
	// Eval returns κ(g, bags) for the bags of a tree decomposition of g.
	Eval(g *graph.Graph, bags []vset.Set) float64
}

// Combinable is the dynamic-programming fast path: the cost must equal
// Value(g, max over bags of BagMax, Σ over bags of BagSum), where BagSum
// of a bag placed at the root of a block (S, C) is charged relative to the
// block's realization (pairs inside the separator sep belong to the parent
// and are excluded). All built-in costs implement it.
type Combinable interface {
	Cost
	// BagMax returns the max-combined term of bag omega (e.g. |Ω|-1 for
	// width).
	BagMax(g *graph.Graph, omega vset.Set) float64
	// BagSum returns the additive term of bag omega at the root of a block
	// with separator sep: for fill-like costs, the pairs inside omega that
	// are non-adjacent in g and not both inside sep. Pass the empty set at
	// the top level.
	BagSum(g *graph.Graph, omega, sep vset.Set) float64
	// Value folds the two accumulated terms into the final cost.
	Value(g *graph.Graph, max, sum float64) float64
}

// MergeKind says how a cost combines across the clique-separator atoms of
// a graph, where a minimal triangulation is the union of independent
// minimal triangulations of the atoms (Leimer).
type MergeKind int

const (
	// NoMerge marks costs with no exact atom-wise combination rule; the
	// solver falls back to the monolithic whole-graph DP for them.
	NoMerge MergeKind = iota
	// MergeMax: the cost of the union is the maximum of the atom costs
	// (pure max-type costs — width, weighted width, hypertree widths).
	MergeMax
	// MergeSum: the cost of the union is the sum of the atom costs
	// (pure sum-type costs — fill-in, weighted fill, total state space;
	// exact because atoms overlap only in cliques of G, so no fill edge
	// and no bag is shared between atoms).
	MergeSum
)

// Mergeable is implemented by costs that declare an atom-wise combination
// rule. Only such costs are eligible for the decomposed solver: the
// ranked product-stream merge needs the combined cost to be monotone in
// each atom's own cost stream, which holds for pure max- and pure
// sum-type costs but not for mixed ones (LexWidthFill orders by
// multiplier·max + sum, where advancing one atom past a width tie can
// lower the combined fill while another atom dominates the width — see
// DESIGN.md).
type Mergeable interface {
	Cost
	MergeKind() MergeKind
}

// missingPairs counts pairs within omega that are non-adjacent in g and
// not both inside sep.
func missingPairs(g *graph.Graph, omega, sep vset.Set) int {
	vs := omega.Slice()
	count := 0
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(vs[i], vs[j]) {
				continue
			}
			if sep.Contains(vs[i]) && sep.Contains(vs[j]) {
				continue
			}
			count++
		}
	}
	return count
}

// distinctMissingPairs counts the pairs that co-occur in some bag and are
// missing from g, each counted once.
func distinctMissingPairs(g *graph.Graph, bags []vset.Set) int {
	seen := map[[2]int]bool{}
	fill := 0
	for _, b := range bags {
		vs := b.Slice()
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				p := [2]int{vs[i], vs[j]}
				if seen[p] {
					continue
				}
				seen[p] = true
				if !g.HasEdge(vs[i], vs[j]) {
					fill++
				}
			}
		}
	}
	return fill
}

// Width is the classic width cost: the maximum bag cardinality minus one.
type Width struct{}

// Name implements Cost.
func (Width) Name() string { return "width" }

// Eval implements Cost.
func (Width) Eval(_ *graph.Graph, bags []vset.Set) float64 {
	w := -1.0
	for _, b := range bags {
		if v := float64(b.Len() - 1); v > w {
			w = v
		}
	}
	return w
}

// BagMax implements Combinable.
func (Width) BagMax(_ *graph.Graph, omega vset.Set) float64 {
	return float64(omega.Len() - 1)
}

// BagSum implements Combinable.
func (Width) BagSum(_ *graph.Graph, _, _ vset.Set) float64 { return 0 }

// Value implements Combinable.
func (Width) Value(_ *graph.Graph, max, _ float64) float64 { return max }

// MergeKind implements Mergeable: width folds as a maximum over atoms.
func (Width) MergeKind() MergeKind { return MergeMax }

// FillIn is the classic fill-in cost: the number of edges added by
// saturating every bag.
type FillIn struct{}

// Name implements Cost.
func (FillIn) Name() string { return "fill" }

// Eval implements Cost.
func (FillIn) Eval(g *graph.Graph, bags []vset.Set) float64 {
	return float64(distinctMissingPairs(g, bags))
}

// BagMax implements Combinable.
func (FillIn) BagMax(_ *graph.Graph, _ vset.Set) float64 { return 0 }

// BagSum implements Combinable. Pairs inside the block separator are the
// parent's responsibility, which makes the per-block sums add up to the
// global fill without double counting (see DESIGN.md).
func (FillIn) BagSum(g *graph.Graph, omega, sep vset.Set) float64 {
	return float64(missingPairs(g, omega, sep))
}

// Value implements Combinable.
func (FillIn) Value(_ *graph.Graph, _, sum float64) float64 { return sum }

// MergeKind implements Mergeable: fill edges of distinct atoms are
// disjoint (a shared pair would lie inside a clique separator, hence be
// an edge of G), so fill folds as a sum.
func (FillIn) MergeKind() MergeKind { return MergeSum }

// WeightedWidth is Furuse–Yamazaki's width_c: the maximum over bags of a
// user-supplied bag score (e.g. the log of the joint domain size in
// probabilistic inference, or a fractional edge-cover weight for
// fractional hypertree width).
type WeightedWidth struct {
	// BagWeight scores one bag. It must be monotone under bag inclusion
	// for the cost to be split monotone.
	BagWeight func(g *graph.Graph, bag vset.Set) float64
	// CostName labels the cost; defaults to "weighted-width".
	CostName string
}

// Name implements Cost.
func (c WeightedWidth) Name() string {
	if c.CostName != "" {
		return c.CostName
	}
	return "weighted-width"
}

// Eval implements Cost.
func (c WeightedWidth) Eval(g *graph.Graph, bags []vset.Set) float64 {
	w := math.Inf(-1)
	for _, b := range bags {
		if v := c.BagWeight(g, b); v > w {
			w = v
		}
	}
	return w
}

// BagMax implements Combinable.
func (c WeightedWidth) BagMax(g *graph.Graph, omega vset.Set) float64 {
	return c.BagWeight(g, omega)
}

// BagSum implements Combinable.
func (c WeightedWidth) BagSum(_ *graph.Graph, _, _ vset.Set) float64 { return 0 }

// Value implements Combinable.
func (c WeightedWidth) Value(_ *graph.Graph, max, _ float64) float64 { return max }

// MergeKind implements Mergeable: a pure max-type cost.
func (c WeightedWidth) MergeKind() MergeKind { return MergeMax }

// TotalStateSpace is the paper's "sum over the exponents of the bag
// cardinalities": Σ over bags of Π over bag members of the member's domain
// size — exactly the total clique-table size of a junction tree in
// probabilistic inference. Domain defaults to 2 for every vertex.
type TotalStateSpace struct {
	// Domain maps a vertex to its number of states; nil means 2 everywhere.
	Domain []int
}

// Name implements Cost.
func (TotalStateSpace) Name() string { return "state-space" }

func (c TotalStateSpace) tableSize(bag vset.Set) float64 {
	size := 1.0
	bag.ForEach(func(v int) bool {
		d := 2
		if c.Domain != nil {
			d = c.Domain[v]
		}
		size *= float64(d)
		return true
	})
	return size
}

// Eval implements Cost. Duplicate bags are counted once, keeping the cost
// invariant under bag equivalence.
func (c TotalStateSpace) Eval(_ *graph.Graph, bags []vset.Set) float64 {
	seen := map[string]bool{}
	total := 0.0
	for _, b := range bags {
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		total += c.tableSize(b)
	}
	return total
}

// BagMax implements Combinable.
func (c TotalStateSpace) BagMax(_ *graph.Graph, _ vset.Set) float64 { return 0 }

// BagSum implements Combinable.
func (c TotalStateSpace) BagSum(_ *graph.Graph, omega, _ vset.Set) float64 {
	return c.tableSize(omega)
}

// Value implements Combinable.
func (c TotalStateSpace) Value(_ *graph.Graph, _, sum float64) float64 { return sum }

// MergeKind implements Mergeable: bags of distinct atoms are distinct
// (a shared bag would sit inside a clique separator and be subsumed by a
// larger clique), so table sizes fold as a sum.
func (c TotalStateSpace) MergeKind() MergeKind { return MergeSum }

// LexWidthFill orders decompositions by width first and fill second, via
// the linear combination multiplier·width + fill the paper suggests
// (Section 3). The multiplier is n·(n-1)/2 + 1, not the paper's |E(G)|:
// it strictly dominates any possible fill and therefore realizes the true
// lexicographic order.
type LexWidthFill struct{}

// Name implements Cost.
func (LexWidthFill) Name() string { return "lex-width-fill" }

func (LexWidthFill) multiplier(g *graph.Graph) float64 {
	n := float64(g.Universe())
	return n*(n-1)/2 + 1
}

// Eval implements Cost.
func (c LexWidthFill) Eval(g *graph.Graph, bags []vset.Set) float64 {
	return c.multiplier(g)*Width{}.Eval(g, bags) + FillIn{}.Eval(g, bags)
}

// BagMax implements Combinable.
func (c LexWidthFill) BagMax(g *graph.Graph, omega vset.Set) float64 {
	return float64(omega.Len() - 1)
}

// BagSum implements Combinable.
func (c LexWidthFill) BagSum(g *graph.Graph, omega, sep vset.Set) float64 {
	return float64(missingPairs(g, omega, sep))
}

// Value implements Combinable.
func (c LexWidthFill) Value(g *graph.Graph, max, sum float64) float64 {
	return c.multiplier(g)*max + sum
}
