package rankedtriang

// This file holds one benchmark per table and figure of the paper's
// evaluation (Section 7) — see the per-experiment index in DESIGN.md —
// plus micro-benchmarks of the building blocks and the ablations DESIGN.md
// calls out. The experiment benchmarks run the same harness as
// cmd/experiments with seconds-scale budgets and surface the headline
// numbers as benchmark metrics; run cmd/experiments to get the full
// rendered tables.

import (
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ckk"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/minsep"
	"repro/internal/pmc"
	"repro/internal/triang"
)

// Budgets for the experiment benchmarks. The paper used 60 s for
// separators, 30 min for PMCs and 30 min per enumeration; the shapes are
// budget-relative so these scaled budgets reproduce them in CI time.
const (
	benchMSBudget   = 200 * time.Millisecond
	benchPMCBudget  = 400 * time.Millisecond
	benchEnumBudget = 150 * time.Millisecond
)

// BenchmarkFigure5Tractability classifies every dataset graph by whether
// MinSep and PMC generation finish in budget (Figure 5).
func BenchmarkFigure5Tractability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := exp.Datasets(42)
		rows, _ := exp.Figure5(ds, benchMSBudget, benchPMCBudget)
		var term, ms, not int
		for _, r := range rows {
			term += r.Terminated
			ms += r.MSTerminated
			not += r.NotTerminated
		}
		b.ReportMetric(float64(term), "terminated")
		b.ReportMetric(float64(ms), "ms-terminated")
		b.ReportMetric(float64(not), "not-terminated")
	}
}

// BenchmarkFigure6SeparatorDistribution reports the #min-seps vs #edges
// distribution over MS-tractable graphs (Figure 6).
func BenchmarkFigure6SeparatorDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := exp.Datasets(42)
		_, results := exp.Figure5(ds, benchMSBudget, benchPMCBudget)
		pts := exp.Figure6(results)
		var ratio float64
		for _, p := range pts {
			if p.Edges > 0 {
				ratio += float64(p.MinSeps) / float64(p.Edges)
			}
		}
		if len(pts) > 0 {
			b.ReportMetric(ratio/float64(len(pts)), "avg-minseps/edges")
			b.ReportMetric(float64(len(pts)), "tractable-graphs")
		}
	}
}

// BenchmarkFigure7RandomSeparators measures the separator count of
// G(n, p) across the density sweep (Figure 7): small for sparse and dense
// p, blowing up in between.
func BenchmarkFigure7RandomSeparators(b *testing.B) {
	ns := []int{20, 30, 50}
	ps := []float64{0.05, 0.15, 0.25, 0.4, 0.55, 0.75, 0.95}
	for i := 0; i < b.N; i++ {
		pts := exp.Figure7(42, ns, ps, 2, 100*time.Millisecond)
		timeouts := 0
		peak := 0
		for _, p := range pts {
			if p.TimedOut {
				timeouts++
			} else if p.MinSeps > peak {
				peak = p.MinSeps
			}
		}
		b.ReportMetric(float64(timeouts), "timeouts")
		b.ReportMetric(float64(peak), "peak-minseps")
	}
}

// BenchmarkTable2Enumeration runs the head-to-head RankedTriang vs CKK
// comparison over the tractable dataset graphs (Table 2).
func BenchmarkTable2Enumeration(b *testing.B) {
	ds := exp.Datasets(42)
	_, tract := exp.Figure5(ds, benchMSBudget, benchPMCBudget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := exp.Table2(ds, tract, benchEnumBudget)
		var rankedOpt, ckkOpt, rankedResults, ckkResults int
		for _, r := range rows {
			rankedOpt += r.RankedWidth.NumMinWidth
			ckkOpt += r.CKK.NumMinWidth
			rankedResults += r.RankedWidth.Results
			ckkResults += r.CKK.Results
		}
		b.ReportMetric(float64(rankedOpt), "ranked-minw-results")
		b.ReportMetric(float64(ckkOpt), "ckk-minw-results")
		b.ReportMetric(float64(rankedResults), "ranked-results")
		b.ReportMetric(float64(ckkResults), "ckk-results")
	}
}

// BenchmarkFigure8Delay compares average delays of RankedTriang (with and
// without initialization) and CKK on G(n, p) (Figure 8(a)(b)).
func BenchmarkFigure8Delay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.Figure8(42, []int{20}, []float64{0.15, 0.35, 0.55, 0.75}, 2, benchEnumBudget)
		var ranked, noinit, baseline time.Duration
		for _, p := range pts {
			ranked += p.RankedDelay
			noinit += p.RankedDelayNoInit
			baseline += p.CKKDelay
		}
		n := float64(len(pts))
		b.ReportMetric(float64(ranked.Microseconds())/n, "ranked-delay-µs")
		b.ReportMetric(float64(noinit.Microseconds())/n, "ranked-noinit-µs")
		b.ReportMetric(float64(baseline.Microseconds())/n, "ckk-delay-µs")
	}
}

// BenchmarkFigure8Quality compares the fraction of optimal-cost results
// CKK returns relative to RankedTriang (Figure 8(c)(d)).
func BenchmarkFigure8Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.Figure8(43, []int{20}, []float64{0.2, 0.5, 0.8}, 2, benchEnumBudget)
		var pctW, pctF float64
		var nW, nF int
		for _, p := range pts {
			if p.PctMinWidth == p.PctMinWidth { // not NaN
				pctW += p.PctMinWidth
				nW++
			}
			if p.PctMinFill == p.PctMinFill {
				pctF += p.PctMinFill
				nF++
			}
		}
		if nW > 0 {
			b.ReportMetric(100*pctW/float64(nW), "ckk-pct-minw")
		}
		if nF > 0 {
			b.ReportMetric(100*pctF/float64(nF), "ckk-pct-minf")
		}
	}
}

// BenchmarkFigure9CaseStudy reproduces the two case-study time series: a
// CSP-style graph and an object-detection-style graph, results and widths
// over time for both algorithms (Figure 9 / Appendix B).
func BenchmarkFigure9CaseStudy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	csp := gen.CSPGrid(rng, 4, 4, 5)
	obj := gen.ConnectedGNP(rng, 13, 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, g := range map[string]*graph.Graph{"csp": csp, "objdet": obj} {
			ranked := exp.RunRanked(g, cost.Width{}, benchEnumBudget)
			baseline := exp.RunCKK(g, benchEnumBudget)
			rb := exp.Figure9(ranked, benchEnumBudget/10, 10)
			cb := exp.Figure9(baseline, benchEnumBudget/10, 10)
			exp.RenderFigure9(io.Discard, name, rb, cb)
			b.ReportMetric(float64(len(ranked.Records)), name+"-ranked-results")
			b.ReportMetric(float64(len(baseline.Records)), name+"-ckk-results")
		}
	}
}

// --- Micro-benchmarks of the substrates -------------------------------

func benchGraph(n int, p float64, seed int64) *graph.Graph {
	return gen.ConnectedGNP(rand.New(rand.NewSource(seed)), n, p)
}

func BenchmarkMinSepEnumeration(b *testing.B) {
	g := benchGraph(24, 0.2, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(minsep.All(g)) == 0 {
			b.Fatal("no separators")
		}
	}
}

func BenchmarkPMCEnumeration(b *testing.B) {
	g := benchGraph(16, 0.25, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(pmc.All(g)) == 0 {
			b.Fatal("no PMCs")
		}
	}
}

func BenchmarkSolverInit(b *testing.B) {
	g := benchGraph(16, 0.25, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSolver(g, cost.Width{})
	}
}

func BenchmarkMinTriangWidth(b *testing.B) {
	g := benchGraph(16, 0.25, 7)
	s := mustSolver(g, cost.Width{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MinTriang(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankedDelay(b *testing.B) {
	// Cost of one Next() call after warm-up — the paper's "delay".
	g := benchGraph(14, 0.3, 7)
	s := mustSolver(g, cost.Width{})
	e := s.EnumerateContext(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Next(); !ok {
			b.StopTimer()
			e = s.EnumerateContext(context.Background())
			b.StartTimer()
		}
	}
}

func BenchmarkCKKDelay(b *testing.B) {
	g := benchGraph(14, 0.3, 7)
	e := ckk.New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Next(); !ok {
			b.StopTimer()
			e = ckk.New(g)
			b.StartTimer()
		}
	}
}

func BenchmarkLBTriang(b *testing.B) {
	g := benchGraph(40, 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triang.LBTriang(g, nil)
	}
}

func BenchmarkMCSM(b *testing.B) {
	g := benchGraph(40, 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triang.MCSMOrder(g)
	}
}

// --- Ablations ----------------------------------------------------------

// slowCost hides the Combinable fast path of the width cost, so the DP
// falls back to whole-decomposition evaluation: the ablation for the
// summary fast path called out in DESIGN.md.
type slowCost struct{ inner cost.Cost }

func (s slowCost) Name() string { return s.inner.Name() + "-slow" }
func (s slowCost) Eval(g *graph.Graph, bags []VertexSet) float64 {
	return s.inner.Eval(g, bags)
}

func BenchmarkAblationCombinableFastPath(b *testing.B) {
	g := benchGraph(14, 0.3, 7)
	b.Run("fast", func(b *testing.B) {
		s := mustSolver(g, cost.FillIn{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MinTriang(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		s := mustSolver(g, slowCost{cost.FillIn{}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MinTriang(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCKKBlackBox drains CKK with LB-Triang, its fixed
// black-box triangulator; DESIGN.md "Backend selection" records the MCS-M
// comparison that fixed it.
func BenchmarkAblationCKKBlackBox(b *testing.B) {
	g := benchGraph(13, 0.3, 7)
	b.Run("lbtriang", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ckk.New(g)
			for {
				if _, ok := e.Next(); !ok {
					break
				}
			}
		}
	})
}
