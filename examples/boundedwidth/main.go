// Bounded-width enumeration: Theorem 4.5 of the paper.
//
// When a graph has too many minimal separators for the poly-MS route, the
// bounded variant MinTriangB enumerates only the triangulations of width
// at most b — and the paper proves polynomial delay for constant b with no
// assumption on the separator count. This example enumerates the width-
// bounded triangulations of a grid (grids have Θ(3^k)-style separator
// growth, the classic poly-MS stress case) and shows how the bound prunes
// the space.
//
// Run with: go run ./examples/boundedwidth
package main

import (
	"context"
	"fmt"

	rankedtriang "repro"
)

func main() {
	const rows, cols = 3, 4
	g := grid(rows, cols)
	fmt.Printf("grid %dx%d: %d vertices, %d edges (treewidth %d)\n\n",
		rows, cols, g.NumVertices(), g.NumEdges(), rows)

	ctx := context.Background()
	for _, bound := range []int{2, 3, 4} {
		solver, err := rankedtriang.NewSolver(ctx, g, rankedtriang.FillIn(), rankedtriang.SolverOptions{WidthBound: &bound})
		if err != nil {
			panic(err)
		}
		fmt.Printf("width ≤ %d: %d separators, %d PMCs admitted; ",
			bound, len(solver.MinimalSeparators()), len(solver.PMCs()))
		enum := solver.EnumerateContext(ctx)
		count := 0
		bestFill := -1.0
		for count < 5000 {
			r, ok := enum.Next()
			if !ok {
				break
			}
			if count == 0 {
				bestFill = r.Cost
			}
			count++
		}
		if count == 0 {
			fmt.Printf("no triangulation of width ≤ %d exists\n", bound)
			continue
		}
		fmt.Printf("%d minimal triangulations, best fill-in %g\n", count, bestFill)
	}

	fmt.Println()
	fmt.Println("top 3 width-≤3 triangulations by fill, with their clique trees:")
	bound := 3
	solver, err := rankedtriang.NewSolver(ctx, g, rankedtriang.FillIn(), rankedtriang.SolverOptions{WidthBound: &bound})
	if err != nil {
		panic(err)
	}
	enum := solver.EnumerateContext(ctx)
	for i := 1; i <= 3; i++ {
		r, ok := enum.Next()
		if !ok {
			break
		}
		fmt.Printf("  #%d fill=%g width=%d bags=%d\n", i, r.Cost, r.Tree.Width(), len(r.Bags))
	}
}

func grid(rows, cols int) *rankedtriang.Graph {
	g := rankedtriang.NewGraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.SetName(id(r, c), fmt.Sprintf("x%d%d", r, c))
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}
