package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/minsep"
	"repro/internal/pmc"
	"repro/internal/vset"
)

// TractabilityOutcome classifies one graph under the Figure 5 budgets.
type TractabilityOutcome int

// Figure 5 classes.
const (
	// Terminated: both MinSep(G) and PMC(G) finished within budget.
	Terminated TractabilityOutcome = iota
	// MSTerminated: MinSep(G) finished but PMC(G) did not.
	MSTerminated
	// NotTerminated: MinSep(G) itself exceeded its budget.
	NotTerminated
)

func (o TractabilityOutcome) String() string {
	switch o {
	case Terminated:
		return "terminated"
	case MSTerminated:
		return "ms-terminated"
	default:
		return "not-terminated"
	}
}

// TractabilityResult is one graph's Figure 5/6 record.
type TractabilityResult struct {
	Dataset string
	Graph   string
	Outcome TractabilityOutcome
	Edges   int
	MinSeps int // valid when Outcome != NotTerminated
	PMCs    int // valid when Outcome == Terminated
	Seps    []vset.Set
	PMCSets []vset.Set
}

// Figure5Row aggregates one dataset row of Figure 5.
type Figure5Row struct {
	Dataset       string
	Terminated    int
	MSTerminated  int
	NotTerminated int
}

// ClassifyGraph runs the Figure 5 protocol on a single graph: generate the
// minimal separators under msBudget, then the PMCs under pmcBudget.
func ClassifyGraph(g *graph.Graph, msBudget, pmcBudget time.Duration) TractabilityResult {
	res := TractabilityResult{Edges: g.NumEdges()}
	ctx, cancel := context.WithTimeout(context.Background(), msBudget)
	seps, ok := minsep.AllCtx(ctx, g)
	cancel()
	if !ok {
		res.Outcome = NotTerminated
		return res
	}
	res.MinSeps = len(seps)
	res.Seps = seps
	ctx, cancel = context.WithTimeout(context.Background(), pmcBudget)
	pmcs, err := pmc.Enumerate(ctx, g, seps, -1)
	cancel()
	if err != nil {
		res.Outcome = MSTerminated
		return res
	}
	res.Outcome = Terminated
	res.PMCs = len(pmcs)
	res.PMCSets = pmcs
	return res
}

// Figure5 runs the tractability study over all datasets and returns per-
// dataset rows plus the raw per-graph records (which Figure 6 and Table 2
// reuse).
func Figure5(datasets []Dataset, msBudget, pmcBudget time.Duration) ([]Figure5Row, []TractabilityResult) {
	var rows []Figure5Row
	var all []TractabilityResult
	for _, ds := range datasets {
		row := Figure5Row{Dataset: ds.Name}
		for _, ng := range ds.Graphs {
			r := ClassifyGraph(ng.Graph, msBudget, pmcBudget)
			r.Dataset = ds.Name
			r.Graph = ng.Name
			all = append(all, r)
			switch r.Outcome {
			case Terminated:
				row.Terminated++
			case MSTerminated:
				row.MSTerminated++
			default:
				row.NotTerminated++
			}
		}
		rows = append(rows, row)
	}
	return rows, all
}

// RenderFigure5 prints the dataset × outcome table.
func RenderFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintf(w, "%-18s %12s %14s %15s\n", "dataset", "terminated", "ms-terminated", "not-terminated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %12d %14d %15d\n", r.Dataset, r.Terminated, r.MSTerminated, r.NotTerminated)
	}
}

// Figure6Point is one point of the #min-seps vs #edges distribution.
type Figure6Point struct {
	Dataset string
	Graph   string
	Edges   int
	MinSeps int
}

// Figure6 extracts the separator-count distribution over the MS-tractable
// graphs of a Figure 5 run.
func Figure6(results []TractabilityResult) []Figure6Point {
	var pts []Figure6Point
	for _, r := range results {
		if r.Outcome == NotTerminated {
			continue
		}
		pts = append(pts, Figure6Point{Dataset: r.Dataset, Graph: r.Graph, Edges: r.Edges, MinSeps: r.MinSeps})
	}
	return pts
}

// RenderFigure6 prints the log-log scatter data.
func RenderFigure6(w io.Writer, pts []Figure6Point) {
	fmt.Fprintf(w, "%-18s %-16s %8s %9s %14s\n", "dataset", "graph", "edges", "minseps", "minseps/edges")
	for _, p := range pts {
		ratio := float64(p.MinSeps) / float64(max(1, p.Edges))
		fmt.Fprintf(w, "%-18s %-16s %8d %9d %14.2f\n", p.Dataset, p.Graph, p.Edges, p.MinSeps, ratio)
	}
}

// Figure7Point is one random-graph measurement of Figure 7.
type Figure7Point struct {
	N        int
	P        float64
	MinSeps  int
	TimedOut bool
}

// Figure7 measures the number of minimal separators of G(n, p) for each
// n in ns and p in ps, draws samples per cell, with a per-graph budget
// (red marks in the paper's charts are the timeouts).
func Figure7(seed int64, ns []int, ps []float64, draws int, budget time.Duration) []Figure7Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []Figure7Point
	for _, n := range ns {
		for _, p := range ps {
			for d := 0; d < draws; d++ {
				g := gen.GNP(rng, n, p)
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				seps, ok := minsep.AllCtx(ctx, g)
				cancel()
				pts = append(pts, Figure7Point{N: n, P: p, MinSeps: len(seps), TimedOut: !ok})
			}
		}
	}
	return pts
}

// RenderFigure7 prints the per-(n, p) average separator counts.
func RenderFigure7(w io.Writer, pts []Figure7Point) {
	type key struct {
		n int
		p float64
	}
	sum := map[key]int{}
	cnt := map[key]int{}
	timeouts := map[key]int{}
	var order []key
	for _, pt := range pts {
		k := key{pt.N, pt.P}
		if cnt[k] == 0 {
			order = append(order, k)
		}
		cnt[k]++
		if pt.TimedOut {
			timeouts[k]++
		} else {
			sum[k] += pt.MinSeps
		}
	}
	fmt.Fprintf(w, "%4s %6s %12s %9s\n", "n", "p", "avg-minseps", "timeouts")
	for _, k := range order {
		done := cnt[k] - timeouts[k]
		avg := 0.0
		if done > 0 {
			avg = float64(sum[k]) / float64(done)
		}
		fmt.Fprintf(w, "%4d %6.2f %12.1f %9d\n", k.n, k.p, avg, timeouts[k])
	}
}
