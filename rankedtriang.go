// Package rankedtriang is a Go implementation of "Ranked Enumeration of
// Minimal Triangulations" (Ravid, Medini, Kimelfeld; PODS 2019): it
// enumerates the minimal triangulations of a graph — equivalently, its
// proper tree decompositions — by increasing cost, with polynomial delay
// for polynomial-time split-monotone bag costs on graphs with polynomially
// many minimal separators (and, via a width bound, on arbitrary graphs).
//
// # Quick start
//
//	g := rankedtriang.NewGraph(4)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(2, 3)
//	g.AddEdge(3, 0)
//	ctx := context.Background()
//	solver, err := rankedtriang.NewSolver(ctx, g, rankedtriang.Width(), rankedtriang.SolverOptions{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	enum := solver.EnumerateContext(ctx)
//	for r, ok := enum.Next(); ok; r, ok = enum.Next() {
//		fmt.Println(r.Tree, r.Cost)
//	}
//
// The package re-exports, as type aliases, the building blocks the solver
// and its results are made of (graphs, vertex sets, tree decompositions,
// cost functions, hypergraphs, junction trees), so the examples need only
// this single import.
package rankedtriang

import (
	"context"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/hyper"
	"repro/internal/jt"
	"repro/internal/td"
	"repro/internal/vset"
)

// Graph is an undirected graph over a fixed vertex universe.
type Graph = graph.Graph

// VertexSet is a set of vertices of a Graph.
type VertexSet = vset.Set

// Decomposition is a tree decomposition (a tree of bags).
type Decomposition = td.Decomposition

// Cost is a split-monotone bag cost κ(G, T) (Section 3 of the paper).
type Cost = cost.Cost

// Constraints is an inclusion/exclusion constraint pair [I, X] over
// minimal separators (Section 6.1).
type Constraints = cost.Constraints

// Solver is the initialized triangulation engine: it owns the minimal
// separators, potential maximal cliques and block structure of a graph and
// answers optimization and enumeration queries over them.
type Solver = core.Solver

// Enumerator streams minimal triangulations by increasing cost
// (RankedTriang, Figure 4 of the paper).
type Enumerator = core.Enumerator

// TDEnumerator streams proper tree decompositions by increasing cost
// (Proposition 6.1).
type TDEnumerator = core.TDEnumerator

// Result is one minimal triangulation: the chordal supergraph H, a clique
// tree of it, its bags, minimal separators, and cost.
type Result = core.Result

// Hypergraph is a hypergraph with a primal graph and edge-cover based
// costs (hypertree width, fractional hypertree width).
type Hypergraph = hyper.Hypergraph

// ErrNoTriangulation is returned when no minimal triangulation satisfies
// the given width bound or constraints.
var ErrNoTriangulation = core.ErrNoTriangulation

// NewGraph returns a graph over the vertex universe {0..n-1} with no edges.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewVertexSet returns the set of the given vertices over universe n.
func NewVertexSet(n int, vertices ...int) VertexSet { return vset.Of(n, vertices...) }

// NewHypergraph returns a hypergraph over n vertices.
func NewHypergraph(n int) *Hypergraph { return hyper.New(n) }

// Width is the classic width cost: maximum bag size minus one.
func Width() Cost { return cost.Width{} }

// FillIn is the classic fill-in cost: the number of added edges.
func FillIn() Cost { return cost.FillIn{} }

// WidthThenFill orders by width first and breaks ties by fill-in.
func WidthThenFill() Cost { return cost.LexWidthFill{} }

// StateSpace is the total junction-tree table size: the sum over bags of
// the product of member domain sizes (2 when domains is nil) — the
// paper's "sum over exponents of bag cardinalities" cost.
func StateSpace(domains []int) Cost { return cost.TotalStateSpace{Domain: domains} }

// SolverOptions configures NewSolver: an optional width bound (nil means
// unbounded). The zero value is the unbounded solver.
type SolverOptions = core.Options

// NewSolver initializes the solver for g under the given cost: it
// computes the minimal separators, potential maximal cliques and full
// blocks once; all queries share them. Initialization aborts with ctx's
// error when ctx is cancelled or times out; a background context never
// fails.
//
// With SolverOptions.WidthBound set, the solver is restricted to
// triangulations of width at most the bound (Theorem 4.5 — no poly-MS
// assumption needed for the guarantee); a negative bound is an error.
//
// When the graph splits into several clique-separator atoms and the cost
// folds across them (all pure max- and sum-type built-ins do), the solver
// automatically routes through the atom decomposition: one sub-solver per
// atom, with the per-atom ranked streams merged into one globally
// cost-ordered stream. Initialization and delay then depend on the
// largest atom instead of the whole graph.
func NewSolver(ctx context.Context, g *Graph, c Cost, opts SolverOptions) (*Solver, error) {
	return core.New(ctx, g, c, opts)
}

// FactorModel is a discrete factor model for junction-tree inference.
type FactorModel = jt.Model

// JunctionTree is a calibrated junction tree answering marginal and
// partition-function queries.
type JunctionTree = jt.JunctionTree

// NewFactorModel creates a factor model with the given per-variable
// cardinalities.
func NewFactorModel(card []int) *FactorModel { return jt.NewModel(card) }

// BuildJunctionTree assigns the model's factors to the decomposition's
// bags and calibrates with sum-product message passing. The decomposition
// typically comes from a Result produced under the StateSpace cost, which
// is exactly the tree's total table size.
func BuildJunctionTree(m *FactorModel, d *Decomposition) (*JunctionTree, error) {
	return jt.Build(m, d)
}

// FillDistance measures how structurally different two minimal
// triangulations of g are: the size of the symmetric difference of their
// fill sets (0 iff they are the same triangulation). Solver.DiverseTopK
// maximizes it pairwise when assembling a portfolio.
func FillDistance(g *Graph, a, b *Result) int { return core.FillDistance(g, a, b) }

// HeuristicWidth returns the width achieved by the classic min-fill
// greedy elimination heuristic — a fast upper bound to compare the exact
// machinery against.
func HeuristicWidth(g *Graph) int {
	return heur.Width(g, heur.Order(g, heur.MinFill))
}
