// Join optimization: the database workload that motivates the paper.
//
// A conjunctive query's Gaifman graph is decomposed; different proper tree
// decompositions of the same width can differ wildly in execution cost
// because of adhesion skew (Kalinsky et al., "Flexible Caching in Trie
// Joins"). The optimizer therefore streams decompositions ranked by a
// generic cost (width, then fill) and scores each candidate with its own
// specialized cost — here, a simulated adhesion-skew estimate — stopping
// after a fixed exploration budget and keeping the best.
//
// Run with: go run ./examples/joinopt
package main

import (
	"context"
	"fmt"
	"math/rand"

	rankedtriang "repro"
)

// relation is one atom of the query with simulated per-attribute skew
// statistics (a real system would read these from catalog histograms).
type relation struct {
	name string
	vars []int
}

func main() {
	// A snowflake-ish join over 9 variables:
	//   R(a,b,c) ⋈ S(c,d) ⋈ T(d,e,f) ⋈ U(f,g) ⋈ V(g,h,a) ⋈ W(h,i)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	rels := []relation{
		{"R", []int{0, 1, 2}},
		{"S", []int{2, 3}},
		{"T", []int{3, 4, 5}},
		{"U", []int{5, 6}},
		{"V", []int{6, 7, 0}},
		{"W", []int{7, 8}},
	}
	h := rankedtriang.NewHypergraph(len(names))
	for _, r := range rels {
		h.AddEdgeSet(rankedtriang.NewVertexSet(len(names), r.vars...))
	}
	g := h.Primal()
	for i, n := range names {
		g.SetName(i, n)
	}
	fmt.Printf("query Gaifman graph: %d variables, %d co-occurrence edges\n",
		g.NumVertices(), g.NumEdges())

	// Simulated per-variable skew: the app-specific statistic the generic
	// cost knows nothing about.
	rng := rand.New(rand.NewSource(7))
	skew := make([]float64, len(names))
	for i := range skew {
		skew[i] = 1 + 9*rng.Float64()
	}

	solver, err := rankedtriang.NewSolver(context.Background(), g, rankedtriang.WidthThenFill(), rankedtriang.SolverOptions{})
	if err != nil {
		panic(err)
	}
	enum := solver.EnumerateProperTDs()

	const budget = 25 // candidate decompositions to inspect
	bestCost := -1.0
	var bestPlan string
	for i := 0; i < budget; i++ {
		d, r, ok := enum.Next()
		if !ok {
			fmt.Printf("space exhausted after %d candidates\n", i)
			break
		}
		c := adhesionSkewCost(d, skew)
		marker := " "
		if bestCost < 0 || c < bestCost {
			bestCost = c
			bestPlan = fmt.Sprintf("candidate #%d (width %d, generic cost %g)", i+1, d.Width(), r.Cost)
			marker = "*"
		}
		fmt.Printf("%s candidate %2d: width=%d adhesion-skew-cost=%.2f\n", marker, i+1, d.Width(), c)
	}
	fmt.Printf("\nchosen plan: %s with estimated execution cost %.2f\n", bestPlan, bestCost)
	fmt.Println("(the generic ranking surfaces low-width candidates early; the")
	fmt.Println(" specialized cost separates isomorphic-width plans, as in the paper)")
}

// adhesionSkewCost estimates trie-join caching cost: the product of the
// skews across each adhesion (intersection of neighboring bags), summed
// over the decomposition's edges — decompositions whose adhesions avoid
// skewed variables cache better.
func adhesionSkewCost(d *rankedtriang.Decomposition, skew []float64) float64 {
	total := 0.0
	for x, nb := range d.Adj {
		for _, y := range nb {
			if x >= y {
				continue
			}
			prod := 1.0
			d.Bags[x].Intersect(d.Bags[y]).ForEach(func(v int) bool {
				prod *= skew[v]
				return true
			})
			total += prod
		}
	}
	return total
}
