package exp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/ckk"
	"repro/internal/cost"
	"repro/internal/gen"
)

func TestDatasetsShape(t *testing.T) {
	ds := Datasets(1)
	if len(ds) < 10 {
		t.Fatalf("only %d datasets", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		if len(d.Graphs) == 0 {
			t.Fatalf("dataset %s empty", d.Name)
		}
		for _, g := range d.Graphs {
			if g.Graph.NumVertices() == 0 {
				t.Fatalf("%s/%s empty graph", d.Name, g.Name)
			}
		}
	}
	for _, want := range []string{"CSP", "TPC-H", "PACE2016-100s", "Promedas", "Grids"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
	// Deterministic per seed.
	ds2 := Datasets(1)
	if ds[0].Graphs[0].Graph.EdgeSetKey() != ds2[0].Graphs[0].Graph.EdgeSetKey() {
		t.Fatalf("datasets not deterministic")
	}
}

func TestClassifyGraph(t *testing.T) {
	// A small graph terminates instantly.
	r := ClassifyGraph(gen.Cycle(6), time.Second, time.Second)
	if r.Outcome != Terminated {
		t.Fatalf("C6 outcome = %v", r.Outcome)
	}
	if r.MinSeps != 9 {
		t.Fatalf("C6 minseps = %d", r.MinSeps)
	}
	if r.PMCs == 0 || r.Edges != 6 {
		t.Fatalf("C6 record: %+v", r)
	}
	// A zero budget forces NotTerminated on any nontrivial graph.
	r = ClassifyGraph(gen.Grid(5, 5), 0, 0)
	if r.Outcome != NotTerminated {
		t.Fatalf("zero budget outcome = %v", r.Outcome)
	}
	// MinSep budget generous, PMC budget zero → MSTerminated.
	r = ClassifyGraph(gen.Grid(3, 3), time.Second, 0)
	if r.Outcome != MSTerminated {
		t.Fatalf("ms-only outcome = %v", r.Outcome)
	}
	if Terminated.String() == "" || MSTerminated.String() == "" || NotTerminated.String() == "" {
		t.Fatalf("outcome strings empty")
	}
}

func TestFigure5And6(t *testing.T) {
	small := []Dataset{
		{Name: "tiny", Graphs: []NamedGraph{
			{Name: "c5", Graph: gen.Cycle(5)},
			{Name: "p4", Graph: gen.Path(4)},
		}},
	}
	rows, results := Figure5(small, time.Second, time.Second)
	if len(rows) != 1 || rows[0].Terminated != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	pts := Figure6(results)
	if len(pts) != 2 {
		t.Fatalf("figure 6 points = %d", len(pts))
	}
	var buf bytes.Buffer
	RenderFigure5(&buf, rows)
	RenderFigure6(&buf, pts)
	if !strings.Contains(buf.String(), "tiny") {
		t.Fatalf("render missing dataset name")
	}
}

func TestFigure7(t *testing.T) {
	pts := Figure7(7, []int{10}, []float64{0.1, 0.5}, 2, time.Second)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.TimedOut {
			t.Fatalf("tiny graphs should not time out")
		}
	}
	var buf bytes.Buffer
	RenderFigure7(&buf, pts)
	if !strings.Contains(buf.String(), "avg-minseps") {
		t.Fatalf("render header missing")
	}
}

func TestRunRankedAndMetrics(t *testing.T) {
	g := gen.Cycle(6)
	run := RunRanked(g, cost.Width{}, 5*time.Second)
	if !run.Exhausted {
		t.Fatalf("C6 enumeration should exhaust within 5s")
	}
	if len(run.Records) != 14 {
		t.Fatalf("C6: %d records, want 14", len(run.Records))
	}
	m := ComputeMetrics(run)
	if m.MinWidth != 2 || m.NumMinWidth != 14 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.MinFill != 3 || m.NumMinFill != 14 {
		t.Fatalf("fill metrics: %+v", m)
	}
	if m.AvgDelay <= 0 {
		t.Fatalf("delay not measured")
	}
	// Ranked order: widths never decrease below an earlier minimum...
	// with the width cost they must be non-decreasing outright.
	for i := 1; i < len(run.Records); i++ {
		if run.Records[i].Width < run.Records[i-1].Width {
			t.Fatalf("ranked run out of order")
		}
	}
}

func TestRunCKKMatchesCount(t *testing.T) {
	g := gen.Cycle(6)
	run := RunCKK(g, 5*time.Second)
	if !run.Exhausted || len(run.Records) != 14 {
		t.Fatalf("CKK run: exhausted=%v records=%d", run.Exhausted, len(run.Records))
	}
	m := ComputeMetrics(run)
	if m.MinWidth != 2 || m.MinFill != 3 {
		t.Fatalf("CKK metrics: %+v", m)
	}
}

// TestRunCKKWidthsUnchanged pins the widths RunCKK records on a fixed
// graph, now read from each result's clique tree, to the values the
// timed loop computed from H's maximal cliques, and checks each against
// the maximal cliques of H by definition.
func TestRunCKKWidthsUnchanged(t *testing.T) {
	g := gen.ConnectedGNP(rand.New(rand.NewSource(7)), 10, 0.35)
	run := RunCKK(g, time.Minute)
	want := []int{3, 4, 3, 3, 3, 3, 3, 4, 3, 3, 3}
	if !run.Exhausted || len(run.Records) != len(want) {
		t.Fatalf("exhausted %v after %d records, want %d", run.Exhausted, len(run.Records), len(want))
	}
	for i, r := range ckk.New(g).All() {
		w := -1
		for _, c := range bruteforce.MaximalCliques(r.H) {
			if c.Len()-1 > w {
				w = c.Len() - 1
			}
		}
		if got := run.Records[i].Width; got != want[i] || got != w {
			t.Fatalf("record %d: width %d, pinned %d, maximal cliques of H give %d", i, got, want[i], w)
		}
	}
}

func TestComputeMetricsEmpty(t *testing.T) {
	m := ComputeMetrics(EnumRun{})
	if m.Results != 0 || m.MinWidth != -1 {
		t.Fatalf("empty metrics: %+v", m)
	}
}

func TestTable2SmallCorpus(t *testing.T) {
	ds := []Dataset{
		{Name: "cycles", Graphs: []NamedGraph{
			{Name: "c5", Graph: gen.Cycle(5)},
			{Name: "c6", Graph: gen.Cycle(6)},
		}},
	}
	_, tract := Figure5(ds, time.Second, time.Second)
	rows := Table2(ds, tract, 2*time.Second)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Graphs != 2 {
		t.Fatalf("graphs = %d", r.Graphs)
	}
	// Both algorithms must find all triangulations: (5 + 14)/2 ≈ 9 each.
	if r.RankedWidth.Results != r.CKK.Results {
		t.Fatalf("ranked %d vs ckk %d results", r.RankedWidth.Results, r.CKK.Results)
	}
	// RankedTriang's width-run emits only optimal widths on cycles (all
	// minimal triangulations of a cycle have width 2).
	if r.RankedWidth.MinWidth != 2 || r.CKK.MinWidth != 2 {
		t.Fatalf("min widths: %d %d", r.RankedWidth.MinWidth, r.CKK.MinWidth)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "cycles(2)") || !strings.Contains(out, "ckk") {
		t.Fatalf("table rendering: %s", out)
	}
}

func TestFigure8(t *testing.T) {
	pts := Figure8(11, []int{8}, []float64{0.3, 0.6}, 2, 2*time.Second)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.RankedDelay < 0 || p.CKKDelay < 0 {
			t.Fatalf("negative delay")
		}
		// On fully-exhausted tiny graphs, CKK finds every optimum that
		// RankedTriang finds: ratios should be 1 where defined.
		if !isNaN(p.PctMinWidth) && (p.PctMinWidth < 0.99 || p.PctMinWidth > 1.01) {
			t.Fatalf("exhausted run pct = %v", p.PctMinWidth)
		}
	}
	var buf bytes.Buffer
	RenderFigure8(&buf, pts)
	if !strings.Contains(buf.String(), "%min-w") {
		t.Fatalf("render header missing")
	}
}

func isNaN(f float64) bool { return f != f }

func TestFigure9Buckets(t *testing.T) {
	run := EnumRun{Records: []RunRecord{
		{When: 1 * time.Millisecond, Width: 5},
		{When: 2 * time.Millisecond, Width: 3},
		{When: 12 * time.Millisecond, Width: 4},
		{When: 99 * time.Millisecond, Width: 7}, // clamped into last bucket
	}}
	buckets := Figure9(run, 10*time.Millisecond, 3)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Results != 2 || buckets[0].MinWidth != 3 || buckets[0].MedWidth != 5 {
		t.Fatalf("bucket 0: %+v", buckets[0])
	}
	if buckets[1].Results != 1 || buckets[1].MinWidth != 4 {
		t.Fatalf("bucket 1: %+v", buckets[1])
	}
	if buckets[2].Results != 1 || buckets[2].MinWidth != 7 {
		t.Fatalf("bucket 2: %+v", buckets[2])
	}
	var buf bytes.Buffer
	RenderFigure9(&buf, "test", buckets, buckets)
	if !strings.Contains(buf.String(), "case study") {
		t.Fatalf("render missing title")
	}
}
