// Quickstart: enumerate the minimal triangulations of the paper's running
// example (Figure 1) by increasing width, then by increasing fill-in.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	rankedtriang "repro"
)

func main() {
	// The graph G of Figure 1(a): u and v each see three "w" vertices,
	// and v has a pendant v'.
	const (
		u  = 0
		v  = 1
		vp = 2
		w1 = 3
		w2 = 4
		w3 = 5
	)
	g := rankedtriang.NewGraph(6)
	for _, w := range []int{w1, w2, w3} {
		g.AddEdge(u, w)
		g.AddEdge(v, w)
	}
	g.AddEdge(v, vp)
	for i, name := range []string{"u", "v", "v'", "w1", "w2", "w3"} {
		g.SetName(i, name)
	}

	fmt.Println("=== ranked by width ===")
	enumerate(g, rankedtriang.Width())

	fmt.Println()
	fmt.Println("=== ranked by fill-in ===")
	enumerate(g, rankedtriang.FillIn())
}

func enumerate(g *rankedtriang.Graph, c rankedtriang.Cost) {
	ctx := context.Background()
	solver, err := rankedtriang.NewSolver(ctx, g, c, rankedtriang.SolverOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("init: %d minimal separators, %d potential maximal cliques\n",
		len(solver.MinimalSeparators()), len(solver.PMCs()))
	enum := solver.EnumerateContext(ctx)
	for i := 1; ; i++ {
		r, ok := enum.Next()
		if !ok {
			break
		}
		fmt.Printf("#%d %s=%g, width=%d, bags:", i, c.Name(), r.Cost, r.Tree.Width())
		for _, b := range r.Bags {
			fmt.Printf(" {")
			for j, vtx := range b.Slice() {
				if j > 0 {
					fmt.Print(",")
				}
				fmt.Print(g.Name(vtx))
			}
			fmt.Print("}")
		}
		fmt.Println()
	}
}
