// Command minseps reports poly-MS statistics for a graph: the number of
// minimal separators, potential maximal cliques and full blocks, under
// optional time budgets — the per-graph version of the paper's Figure 5/6
// study.
//
// Usage:
//
//	minseps -named queen4 -ms-budget 1s -pmc-budget 5s
//	minseps -file model.gr -format pace -verbose
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/minsep"
	"repro/internal/pmc"
)

func main() {
	var (
		file      = flag.String("file", "", "input graph file")
		format    = flag.String("format", "pace", "file format: edges|dimacs|pace|graph6")
		named     = flag.String("named", "", "use a named graph instead of a file")
		msBudget  = flag.Duration("ms-budget", time.Minute, "budget for minimal separator generation")
		pmcBudget = flag.Duration("pmc-budget", 30*time.Minute, "budget for PMC generation")
		verbose   = flag.Bool("verbose", false, "print every separator")
	)
	flag.Parse()

	g, err := loadGraph(*file, *format, *named)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minseps:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), *msBudget)
	seps, ok := minsep.AllCtx(ctx, g)
	cancel()
	if !ok {
		fmt.Printf("minimal separators: NOT TERMINATED within %v (≥ %d found)\n", *msBudget, len(seps))
		os.Exit(2)
	}
	fmt.Printf("minimal separators: %d (%.3fs)\n", len(seps), time.Since(start).Seconds())
	if *verbose {
		for _, s := range seps {
			fmt.Printf("  %s (size %d)\n", s, s.Len())
		}
	}
	fmt.Printf("full blocks: %d\n", len(pmc.FullBlocks(g, seps)))

	start = time.Now()
	ctx, cancel = context.WithTimeout(context.Background(), *pmcBudget)
	pmcs, err := pmc.AllCtx(ctx, g)
	cancel()
	if err != nil {
		fmt.Printf("PMCs: NOT TERMINATED within %v\n", *pmcBudget)
		os.Exit(3)
	}
	fmt.Printf("PMCs: %d (%.3fs)\n", len(pmcs), time.Since(start).Seconds())
	fmt.Println(ratioLine(len(seps), g.NumEdges()))
}

// ratioLine reports the separator-to-edge ratio and its verdict; an
// edgeless graph has no ratio to judge.
func ratioLine(seps, edges int) string {
	if edges == 0 {
		return "minseps/edges: n/a (no edges)"
	}
	ratio := float64(seps) / float64(edges)
	return fmt.Sprintf("minseps/edges: %.2f (poly-MS %s)", ratio, verdict(ratio))
}

func verdict(r float64) string {
	if r <= 2 {
		return "looks comfortable"
	}
	return "is stressed on this graph"
}

func loadGraph(file, format, named string) (*graph.Graph, error) {
	if named != "" {
		return gen.Named(named)
	}
	if file == "" {
		return nil, fmt.Errorf("either -file or -named is required")
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadFormat(f, format)
}
