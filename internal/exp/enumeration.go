package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ckk"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// RunRecord is one produced triangulation: when it appeared (measured from
// the start of the run, initialization included) and its width and fill.
type RunRecord struct {
	When  time.Duration
	Width int
	Fill  int
}

// EnumRun is one algorithm execution under a time budget.
type EnumRun struct {
	Algorithm string
	Init      time.Duration
	Total     time.Duration
	Records   []RunRecord
	Exhausted bool // the algorithm finished before the budget ran out
}

// RunRanked executes RankedTriang⟨κ⟩ on g until the budget elapses or the
// enumeration completes. The budget covers initialization, matching the
// paper's accounting ("this time is counted into the 30 minutes"). The
// enumeration solves its Lawler–Murty branches up to GOMAXPROCS at a
// time while CKK walks sequentially; GOMAXPROCS=1 gives the single-core
// comparison.
func RunRanked(g *graph.Graph, c cost.Cost, budget time.Duration) EnumRun {
	start := time.Now()
	deadline := start.Add(budget)
	run := EnumRun{Algorithm: "ranked-" + c.Name()}
	solver, _ := core.New(context.TODO(), g, c, core.Options{}) // an uncancellable context never fails
	run.Init = solver.InitDuration
	if time.Now().After(deadline) {
		run.Total = time.Since(start)
		return run
	}
	e := solver.EnumerateContext(context.TODO())
	for time.Now().Before(deadline) {
		r, ok := e.Next()
		if !ok {
			run.Exhausted = true
			break
		}
		run.Records = append(run.Records, RunRecord{
			When:  time.Since(start),
			Width: r.Tree.Width(),
			Fill:  r.H.NumEdges() - g.NumEdges(),
		})
	}
	run.Total = time.Since(start)
	return run
}

// RunCKK executes the baseline on g until the budget elapses or the
// enumeration completes.
func RunCKK(g *graph.Graph, budget time.Duration) EnumRun {
	start := time.Now()
	deadline := start.Add(budget)
	run := EnumRun{Algorithm: "ckk"}
	e := ckk.New(g)
	for time.Now().Before(deadline) {
		r, ok := e.Next()
		if !ok {
			run.Exhausted = true
			break
		}
		run.Records = append(run.Records, RunRecord{
			When:  time.Since(start),
			Width: r.Tree.Width(),
			Fill:  r.H.NumEdges() - g.NumEdges(),
		})
	}
	run.Total = time.Since(start)
	return run
}

// Metrics are the Table 2 columns computed from a run.
type Metrics struct {
	Results        int
	Init           time.Duration
	AvgDelay       time.Duration
	AvgDelayNoInit time.Duration
	MinWidth       int
	NumMinWidth    int
	NumNearWidth   int // within 10% of the minimum width
	MinFill        int
	NumMinFill     int
	NumNearFill    int // within 10% of the minimum fill
}

// ComputeMetrics folds a run into Table 2 columns. Optimal counts are
// computed against the run's own best (the paper compares the two
// algorithms' numbers side by side).
func ComputeMetrics(run EnumRun) Metrics {
	m := Metrics{Results: len(run.Records), Init: run.Init, MinWidth: -1, MinFill: -1}
	if len(run.Records) == 0 {
		return m
	}
	m.AvgDelay = run.Total / time.Duration(len(run.Records))
	noInit := run.Total - run.Init
	if noInit < 0 {
		noInit = 0
	}
	m.AvgDelayNoInit = noInit / time.Duration(len(run.Records))
	m.MinWidth = math.MaxInt32
	m.MinFill = math.MaxInt32
	for _, r := range run.Records {
		if r.Width < m.MinWidth {
			m.MinWidth = r.Width
		}
		if r.Fill < m.MinFill {
			m.MinFill = r.Fill
		}
	}
	for _, r := range run.Records {
		if r.Width == m.MinWidth {
			m.NumMinWidth++
		}
		if float64(r.Width) <= 1.1*float64(m.MinWidth) {
			m.NumNearWidth++
		}
		if r.Fill == m.MinFill {
			m.NumMinFill++
		}
		if float64(r.Fill) <= 1.1*float64(m.MinFill) {
			m.NumNearFill++
		}
	}
	return m
}

// Table2Row is one dataset's comparison: RankedTriang optimizing width,
// RankedTriang optimizing fill, and CKK, aggregated over the dataset's
// tractable graphs.
type Table2Row struct {
	Dataset     string
	Graphs      int
	RankedWidth Metrics
	RankedFill  Metrics
	CKK         Metrics
}

// Table2 reproduces the paper's Table 2: for every dataset, run
// RankedTriang twice (width and fill costs) and CKK once on each graph
// classified Terminated by the Figure 5 pass, under the given budget, and
// aggregate. Like the paper, datasets where every algorithm exhausts the
// space almost immediately are still reported (TPC-H is excluded from the
// paper's table for that reason; callers may filter on Exhausted).
func Table2(datasets []Dataset, tract []TractabilityResult, budget time.Duration) []Table2Row {
	tractable := map[string]bool{}
	for _, r := range tract {
		if r.Outcome == Terminated {
			tractable[r.Dataset+"/"+r.Graph] = true
		}
	}
	var rows []Table2Row
	for _, ds := range datasets {
		row := Table2Row{Dataset: ds.Name}
		var rw, rf, ck []Metrics
		for _, ng := range ds.Graphs {
			if !tractable[ds.Name+"/"+ng.Name] {
				continue
			}
			row.Graphs++
			rw = append(rw, ComputeMetrics(RunRanked(ng.Graph, cost.Width{}, budget)))
			rf = append(rf, ComputeMetrics(RunRanked(ng.Graph, cost.FillIn{}, budget)))
			ck = append(ck, ComputeMetrics(RunCKK(ng.Graph, budget)))
		}
		if row.Graphs == 0 {
			continue
		}
		row.RankedWidth = averageMetrics(rw)
		row.RankedFill = averageMetrics(rf)
		row.CKK = averageMetrics(ck)
		rows = append(rows, row)
	}
	return rows
}

func averageMetrics(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{MinWidth: -1, MinFill: -1}
	}
	var out Metrics
	n := time.Duration(len(ms))
	for _, m := range ms {
		out.Results += m.Results
		out.Init += m.Init
		out.AvgDelay += m.AvgDelay
		out.AvgDelayNoInit += m.AvgDelayNoInit
		out.MinWidth += m.MinWidth
		out.NumMinWidth += m.NumMinWidth
		out.NumNearWidth += m.NumNearWidth
		out.MinFill += m.MinFill
		out.NumMinFill += m.NumMinFill
		out.NumNearFill += m.NumNearFill
	}
	out.Results /= len(ms)
	out.Init /= n
	out.AvgDelay /= n
	out.AvgDelayNoInit /= n
	out.MinWidth /= len(ms)
	out.NumMinWidth /= len(ms)
	out.NumNearWidth /= len(ms)
	out.MinFill /= len(ms)
	out.NumMinFill /= len(ms)
	out.NumNearFill /= len(ms)
	return out
}

// RenderTable2 prints the dataset comparison in the paper's two-line
// format: the top line of each dataset is RankedTriang (width columns
// from the width-optimizing run, fill columns from the fill run), the
// bottom line is CKK.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-20s %-7s %7s %9s %9s %9s %6s %7s %9s %6s %7s %9s\n",
		"dataset(graphs)", "algo", "#trng", "init", "delay", "del-noin",
		"min-w", "#min-w", "#<1.1w", "min-f", "#min-f", "#<1.1f")
	for _, r := range rows {
		name := fmt.Sprintf("%s(%d)", r.Dataset, r.Graphs)
		fmt.Fprintf(w, "%-20s %-7s %7d %9s %9s %9s %6d %7d %9d %6d %7d %9d\n",
			name, "ranked",
			r.RankedWidth.Results, fmtDur(r.RankedWidth.Init), fmtDur(r.RankedWidth.AvgDelay),
			fmtDur(r.RankedWidth.AvgDelayNoInit),
			r.RankedWidth.MinWidth, r.RankedWidth.NumMinWidth, r.RankedWidth.NumNearWidth,
			r.RankedFill.MinFill, r.RankedFill.NumMinFill, r.RankedFill.NumNearFill)
		fmt.Fprintf(w, "%-20s %-7s %7d %9s %9s %9s %6d %7d %9d %6d %7d %9d\n",
			"", "ckk",
			r.CKK.Results, fmtDur(0), fmtDur(r.CKK.AvgDelay), fmtDur(r.CKK.AvgDelay),
			r.CKK.MinWidth, r.CKK.NumMinWidth, r.CKK.NumNearWidth,
			r.CKK.MinFill, r.CKK.NumMinFill, r.CKK.NumNearFill)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Figure8Point is one (n, p) cell of Figure 8: delays and the fraction of
// optimal-cost results CKK returns relative to RankedTriang.
type Figure8Point struct {
	N                 int
	P                 float64
	RankedDelay       time.Duration
	RankedDelayNoInit time.Duration
	CKKDelay          time.Duration
	// Quality ratios (CKK count / RankedTriang count); NaN when the
	// denominator is zero.
	PctMinWidth  float64
	PctNearWidth float64
	PctMinFill   float64
	PctNearFill  float64
}

// Figure8 runs both algorithms on G(n, p) draws and reports the delay and
// quality comparison of Figures 8(a)–(d).
func Figure8(seed int64, ns []int, ps []float64, draws int, budget time.Duration) []Figure8Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []Figure8Point
	for _, n := range ns {
		for _, p := range ps {
			var cell []Figure8Point
			for d := 0; d < draws; d++ {
				g := gen.GNP(rng, n, p)
				rw := ComputeMetrics(RunRanked(g, cost.Width{}, budget))
				rf := ComputeMetrics(RunRanked(g, cost.FillIn{}, budget))
				ck := ComputeMetrics(RunCKK(g, budget))
				cell = append(cell, Figure8Point{
					N: n, P: p,
					RankedDelay:       rw.AvgDelay,
					RankedDelayNoInit: rw.AvgDelayNoInit,
					CKKDelay:          ck.AvgDelay,
					PctMinWidth:       ratio(ck.NumMinWidth, rw.NumMinWidth),
					PctNearWidth:      ratio(ck.NumNearWidth, rw.NumNearWidth),
					PctMinFill:        ratio(ck.NumMinFill, rf.NumMinFill),
					PctNearFill:       ratio(ck.NumNearFill, rf.NumNearFill),
				})
			}
			pts = append(pts, averageFig8(cell))
		}
	}
	return pts
}

func ratio(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

func averageFig8(cell []Figure8Point) Figure8Point {
	out := cell[0]
	if len(cell) == 1 {
		return out
	}
	var rd, rdn, cd time.Duration
	var pw, pnw, pf, pnf float64
	var cw, cnw, cf, cnf int
	for _, p := range cell {
		rd += p.RankedDelay
		rdn += p.RankedDelayNoInit
		cd += p.CKKDelay
		if !math.IsNaN(p.PctMinWidth) {
			pw += p.PctMinWidth
			cw++
		}
		if !math.IsNaN(p.PctNearWidth) {
			pnw += p.PctNearWidth
			cnw++
		}
		if !math.IsNaN(p.PctMinFill) {
			pf += p.PctMinFill
			cf++
		}
		if !math.IsNaN(p.PctNearFill) {
			pnf += p.PctNearFill
			cnf++
		}
	}
	n := time.Duration(len(cell))
	out.RankedDelay = rd / n
	out.RankedDelayNoInit = rdn / n
	out.CKKDelay = cd / n
	out.PctMinWidth = avgOrNaN(pw, cw)
	out.PctNearWidth = avgOrNaN(pnw, cnw)
	out.PctMinFill = avgOrNaN(pf, cf)
	out.PctNearFill = avgOrNaN(pnf, cnf)
	return out
}

func avgOrNaN(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// RenderFigure8 prints the per-(n, p) delay and quality comparison.
func RenderFigure8(w io.Writer, pts []Figure8Point) {
	fmt.Fprintf(w, "%4s %6s %12s %12s %12s %8s %8s %8s %8s\n",
		"n", "p", "ranked", "ranked-noin", "ckk", "%min-w", "%1.1w", "%min-f", "%1.1f")
	for _, p := range pts {
		fmt.Fprintf(w, "%4d %6.2f %12s %12s %12s %8s %8s %8s %8s\n",
			p.N, p.P, fmtDur(p.RankedDelay), fmtDur(p.RankedDelayNoInit), fmtDur(p.CKKDelay),
			fmtPct(p.PctMinWidth), fmtPct(p.PctNearWidth), fmtPct(p.PctMinFill), fmtPct(p.PctNearFill))
	}
}

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*v)
}

// Figure9Bucket is one time interval of the case study: results produced
// in the interval with their minimum and median widths.
type Figure9Bucket struct {
	End      time.Duration
	Results  int
	MinWidth int // -1 when the bucket is empty
	MedWidth int
}

// Figure9 buckets a run's records into equal time intervals, reproducing
// the case-study charts.
func Figure9(run EnumRun, interval time.Duration, buckets int) []Figure9Bucket {
	out := make([]Figure9Bucket, buckets)
	widths := make([][]int, buckets)
	for i := range out {
		out[i].End = time.Duration(i+1) * interval
		out[i].MinWidth = -1
	}
	for _, r := range run.Records {
		idx := int(r.When / interval)
		if idx >= buckets {
			idx = buckets - 1
		}
		widths[idx] = append(widths[idx], r.Width)
	}
	for i := range out {
		ws := widths[i]
		out[i].Results = len(ws)
		if len(ws) == 0 {
			continue
		}
		sort.Ints(ws)
		out[i].MinWidth = ws[0]
		out[i].MedWidth = ws[len(ws)/2]
	}
	return out
}

// RenderFigure9 prints the side-by-side case-study series.
func RenderFigure9(w io.Writer, name string, ranked, baseline []Figure9Bucket) {
	fmt.Fprintf(w, "case study: %s\n", name)
	fmt.Fprintf(w, "%10s | %8s %6s %6s | %8s %6s %6s\n",
		"t", "rk-#res", "rk-min", "rk-med", "ckk-#res", "ck-min", "ck-med")
	for i := range ranked {
		r := ranked[i]
		var c Figure9Bucket
		if i < len(baseline) {
			c = baseline[i]
		}
		fmt.Fprintf(w, "%10s | %8d %6d %6d | %8d %6d %6d\n",
			fmtDur(r.End), r.Results, r.MinWidth, r.MedWidth, c.Results, c.MinWidth, c.MedWidth)
	}
}
