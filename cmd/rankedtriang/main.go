// Command rankedtriang enumerates the minimal triangulations (or proper
// tree decompositions) of a graph by increasing cost.
//
// Usage:
//
//	rankedtriang -file graph.gr -format pace -cost width -k 10
//	rankedtriang -named petersen -cost fill -k 5 -proper
//	rankedtriang -file query.edges -format edges -cost lex -bound 3
//
// Formats: edges (whitespace edge list), dimacs (.col), pace (.gr),
// graph6 (first graph of the file).
// Costs: width, fill, lex (width then fill), statespace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		file    = flag.String("file", "", "input graph file")
		format  = flag.String("format", "pace", "file format: edges|dimacs|pace|graph6")
		named   = flag.String("named", "", "use a named graph instead of a file (see -list)")
		list    = flag.Bool("list", false, "list named graphs and exit")
		costArg = flag.String("cost", "width", "ranking cost: width|fill|lex|statespace")
		k       = flag.Int("k", 10, "number of results (0 = all)")
		bound   = flag.Int("bound", -1, "width bound (-1 = unbounded)")
		proper  = flag.Bool("proper", false, "enumerate proper tree decompositions instead of triangulations")
		orbits  = flag.Bool("orbits", false, "emit one representative per automorphism orbit, with its orbit_size")
		stats   = flag.Bool("stats", false, "print initialization statistics")
	)
	flag.Parse()

	if *list {
		for _, n := range gen.NamedGraphs() {
			fmt.Println(n)
		}
		return
	}
	g, err := loadGraph(*file, *format, *named)
	if err != nil {
		fatal(err)
	}
	c, err := pickCost(*costArg, g)
	if err != nil {
		fatal(err)
	}

	var opts core.Options
	if *bound >= 0 {
		opts.WidthBound = bound
	}
	solver, err := core.New(context.Background(), g, c, opts)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		fmt.Printf("init: %v (%d minimal separators, %d PMCs, %d full blocks)\n",
			solver.InitDuration, len(solver.MinimalSeparators()), len(solver.PMCs()), solver.NumFullBlocks())
	}

	if *proper {
		if *orbits {
			fatal(fmt.Errorf("-orbits applies to triangulation enumeration, not -proper"))
		}
		enumerateProper(solver, g, *k)
		return
	}
	enumerateTriangulations(solver, g, *k, *orbits)
}

func enumerateTriangulations(solver *core.Solver, g *graph.Graph, k int, orbits bool) {
	var e *core.Enumerator
	if orbits {
		// Every cost this command offers is label-invariant (statespace
		// runs with default uniform domains), so the orbit collapse is
		// always sound here.
		e = core.NewOrbitBackend(solver, nil).EnumerateContext(context.Background())
	} else {
		e = solver.EnumerateContext(context.Background())
	}
	for i := 1; k == 0 || i <= k; i++ {
		r, ok := e.Next()
		if !ok {
			break
		}
		line := fmt.Sprintf("#%d cost=%g width=%d fill=%d bags=%d seps=%d",
			i, r.Cost, r.Tree.Width(), r.H.NumEdges()-g.NumEdges(), len(r.Bags), len(r.Seps))
		if orbits {
			line += fmt.Sprintf(" orbit_size=%d", r.OrbitSize)
		}
		fmt.Println(line)
		for _, b := range r.Bags {
			fmt.Printf("   bag %s\n", nameSet(g, b))
		}
	}
}

func enumerateProper(solver *core.Solver, g *graph.Graph, k int) {
	e := solver.EnumerateProperTDs()
	for i := 1; k == 0 || i <= k; i++ {
		d, r, ok := e.Next()
		if !ok {
			break
		}
		fmt.Printf("#%d cost=%g width=%d nodes=%d\n", i, r.Cost, d.Width(), d.NumNodes())
		for x, nb := range d.Adj {
			for _, y := range nb {
				if x < y {
					fmt.Printf("   %s -- %s\n", nameSet(g, d.Bags[x]), nameSet(g, d.Bags[y]))
				}
			}
		}
		if d.NumNodes() == 1 {
			fmt.Printf("   %s\n", nameSet(g, d.Bags[0]))
		}
	}
}

func nameSet(g *graph.Graph, s interface{ Slice() []int }) string {
	out := "{"
	for i, v := range s.Slice() {
		if i > 0 {
			out += ","
		}
		out += g.Name(v)
	}
	return out + "}"
}

func loadGraph(file, format, named string) (*graph.Graph, error) {
	if named != "" {
		return gen.Named(named)
	}
	if file == "" {
		return nil, fmt.Errorf("either -file or -named is required (see -h)")
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadFormat(f, format)
}

func pickCost(name string, g *graph.Graph) (cost.Cost, error) {
	switch name {
	case "width":
		return cost.Width{}, nil
	case "fill":
		return cost.FillIn{}, nil
	case "lex":
		return cost.LexWidthFill{}, nil
	case "statespace":
		return cost.TotalStateSpace{}, nil
	}
	return nil, fmt.Errorf("unknown cost %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rankedtriang:", err)
	os.Exit(1)
}
