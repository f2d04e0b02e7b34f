// Portfolio selection: the extensions the paper's concluding remarks ask
// for — diversity and parallelism — in one workflow.
//
// A solver pipeline (say, a CSP engine) wants a handful of *structurally
// different* cheap decompositions to probe at runtime, not five
// near-duplicates of the optimum. DiverseTopK greedily picks a portfolio
// from the ranked stream maximizing pairwise fill distance; the ranked
// stream itself solves its Lawler–Murty branches over GOMAXPROCS
// goroutines, as every enumeration does.
//
// Run with: go run ./examples/portfolio
package main

import (
	"context"
	"fmt"

	rankedtriang "repro"
)

func main() {
	// A queen-graph-like constraint structure: hard enough to have many
	// minimal triangulations, small enough to enumerate instantly.
	g := buildBoard(4)
	fmt.Printf("constraint graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("greedy min-fill heuristic width: %d\n\n", rankedtriang.HeuristicWidth(g))

	ctx := context.Background()
	solver, err := rankedtriang.NewSolver(ctx, g, rankedtriang.WidthThenFill(), rankedtriang.SolverOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("init: %v (%d separators, %d PMCs)\n",
		solver.InitDuration, len(solver.MinimalSeparators()), len(solver.PMCs()))

	// The diverse portfolio.
	portfolio := solver.DiverseTopK(4, 40)
	fmt.Printf("diverse portfolio (%d decompositions):\n", len(portfolio))
	for i, r := range portfolio {
		fmt.Printf("  #%d cost=%g width=%d fill=%d", i+1, r.Cost, r.Tree.Width(),
			r.H.NumEdges()-g.NumEdges())
		if i > 0 {
			fmt.Printf("  (fill distance to optimum: %d)",
				rankedtriang.FillDistance(g, portfolio[0], r))
		}
		fmt.Println()
	}
	fmt.Println("\nfor comparison, the plain top-4 are often near-identical:")
	for i, r := range solver.TopK(ctx, 4) {
		if i == 0 {
			fmt.Printf("  #1 (optimum)\n")
			continue
		}
		fmt.Printf("  #%d fill distance to optimum: %d\n",
			i+1, rankedtriang.FillDistance(g, portfolio[0], r))
	}
}

// buildBoard makes an n×n rook-ish constraint graph (rows and columns are
// cliques) with one diagonal — a classic CSP structure.
func buildBoard(n int) *rankedtriang.Graph {
	g := rankedtriang.NewGraph(n * n)
	id := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.SetName(id(r, c), fmt.Sprintf("q%d%d", r, c))
			for c2 := c + 1; c2 < n; c2++ {
				g.AddEdge(id(r, c), id(r, c2))
			}
			for r2 := r + 1; r2 < n; r2++ {
				g.AddEdge(id(r, c), id(r2, c))
			}
		}
	}
	for d := 0; d+1 < n; d++ {
		g.AddEdge(id(d, d), id(d+1, d+1))
	}
	return g
}
