package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestCanonSpanAllocsExact checks that the allocation pass gives each
// graph.canon span of the timing pass exactly the allocations of the
// CanonicalForm call it wraps, as testing.AllocsPerRun counts them on the
// same graph, and that a pass over other calls is refused.
func TestCanonSpanAllocsExact(t *testing.T) {
	req := edgeRequest(gen.ConnectedGNP(rand.New(rand.NewSource(1)), 14, 0.3), "fill")
	var cp *compiled
	compileAll := func(rc *recorder) {
		rp := &replayer{ctx: context.Background(), rc: rc}
		for i := range 20 {
			rc.req = i
			var err error
			if cp, err = rp.compile(&req, false, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	timing := newRecorder(true)
	compileAll(timing)
	counted := countAllocs(timing.spans)
	compileAll(counted)
	if err := counted.filled(); err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(20, func() { cp.client.CanonicalForm() })
	if want == 0 {
		t.Fatal("CanonicalForm allocates nothing; the test needs a graph it allocates for")
	}
	n := 0
	for _, s := range timing.spans {
		if s.Name != "graph.canon" {
			continue
		}
		n++
		if float64(s.Allocs) != want {
			t.Errorf("graph.canon span %d reports %d allocations, AllocsPerRun counts %g", s.ID, s.Allocs, want)
		}
	}
	if n != 20 {
		t.Fatalf("%d graph.canon spans, want 20", n)
	}

	other := countAllocs(timing.spans)
	rp := &replayer{ctx: context.Background(), rc: other}
	other.req = 7 // the timing pass began with visit 0
	if _, err := rp.compile(&req, false, nil); err != nil {
		t.Fatal(err)
	}
	if other.filled() == nil {
		t.Error("an allocation pass over other calls was accepted")
	}
}

// TestFailuresEnterDistributionsAtInf checks that a failed visit enters
// the latency distribution, and a failed NDJSON visit also the
// time-to-first-result and delay distributions, once at +Inf in place of
// what it measured, raw and at the reference speed.
func TestFailuresEnterDistributionsAtInf(t *testing.T) {
	now := time.Now()
	visitOf := func(o op, ttfr float64, gaps []float64, failed int) *outcome {
		return &outcome{v: &visit{op: o}, due: now, end: now.Add(time.Millisecond), ttfr: ttfr, gaps: gaps, failed: failed}
	}
	p := &phase{scale: 0.5, outs: []*outcome{
		visitOf(opStream, 0.5, []float64{10, 20}, 0), // succeeded
		visitOf(opStream, 0.5, []float64{10, 20}, 1), // checker rejected it
		visitOf(opStream, math.NaN(), nil, 1),        // failed before its first line
		visitOf(opPage, math.NaN(), nil, 1),          // no NDJSON
		visitOf(opStream, math.NaN(), nil, 0),        // succeeded with no results
		visitOf(opDiverse, math.NaN(), nil, 0),       // succeeded, no NDJSON
	}}
	inf := math.Inf(1)
	for _, ref := range []bool{false, true} {
		f := 1.0
		if ref {
			f = 0.5
		}
		lat, ttfr, gaps := samples(p, ref)
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"latency", lat, []float64{f, inf, inf, inf, f, f}},
			{"time to first result", ttfr, []float64{0.5 * f, inf, inf}},
			{"delay", gaps, []float64{10 * f, 20 * f, inf, inf}},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("ref %v: %s samples %v, want %v", ref, c.name, c.got, c.want)
			}
		}
	}
}
