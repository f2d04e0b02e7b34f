// Command benchrun is the repository's benchmark: it generates a seeded
// workload, drives an in-process ranked-enumeration server over loopback
// HTTP, checks every response, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced replay of the same
// requests). The last line of standard output is one JSON object.
//
//	bash benchrun/run.sh --workload warm-serve --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload's untraced phases in turn.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"cold-solve", "warm-serve", "orbit-sym"}

// warmRate is warm-serve's offered load in visits per second, a sixth to
// a tenth of the capacity_rps (410–760 visits/s) measured on a 2-vCPU
// Intel Xeon VM as its speed drifted: at half capacity queueing amplified
// the drift into latency tails too unsteady to bound.
const warmRate = 70

func main() {
	var cfg config
	var seed int64
	var secsFlag float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold-solve, warm-serve, orbit-sym or all")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&secsFlag, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = print the per-layer metrics of a traced replay")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = seed, secsFlag, trace == 1
	cfg.clients = runtime.NumCPU()

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		if cfg.trace {
			fatalf("--workload all runs the untraced phases only")
		}
		names = workloads
	} else if !slices.Contains(workloads, cfg.workload) {
		fatalf("unknown --workload %q (want %s or all)", cfg.workload, strings.Join(workloads, ", "))
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}

	ctx := context.Background()
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		res, _, _, err := runWorkload(ctx, c)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchrun: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload, prints its report and returns the
// result line's content, whose metrics are the end-to-end ones or, with
// cfg.trace, the per-layer ones; both sets are returned as well.
func runWorkload(ctx context.Context, cfg config) (res *result, e2e, layers map[string]metric, err error) {
	var r *run
	switch cfg.workload {
	case "cold-solve":
		r, err = runCold(ctx, cfg)
	case "warm-serve":
		r, err = runWarm(ctx, cfg)
	case "orbit-sym":
		r, err = runOrbit(ctx, cfg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	res = &result{}
	res.Attempted, res.Failed = r.counts()
	if res.Attempted == 0 {
		return nil, nil, nil, fmt.Errorf("no request was sent")
	}
	printStamp(cfg, r)
	printPhases(r)
	e2e = endToEnd(r)
	printMetrics("end-to-end", e2e)
	printExtras(r)
	res.Correct = res.Failed == 0
	res.Metrics = e2e
	if cfg.trace {
		var ok bool
		layers, ok, err = traced(ctx, cfg, r)
		if err != nil {
			return nil, nil, nil, err
		}
		printMetrics("per-layer", layers)
		res.Correct = res.Correct && ok
		res.Metrics = layers
	}
	return res, e2e, layers, nil
}

// quantile returns the nearest-rank q-quantile of xs (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailSamples is how many samples a tail percentile needs so that ten
// lie beyond it.
func tailSamples(q float64) int { return int(math.Round(10 / (1 - q))) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples gathers p's latency, time-to-first-result and inter-result gap
// samples, raw or, with ref, at the reference speed. A failed visit
// enters each distribution it belongs to once, at +Inf, in place of
// whatever it measured.
func samples(p *phase, ref bool) (lat, ttfr, gaps []float64) {
	f := 1.0
	if ref {
		f = p.scale
	}
	for _, o := range p.outs {
		lat = append(lat, o.latency()*f)
		switch {
		case o.v.op != opStream:
		case o.failed > 0:
			ttfr = append(ttfr, math.Inf(1))
			gaps = append(gaps, math.Inf(1))
		case !math.IsNaN(o.ttfr):
			ttfr = append(ttfr, o.ttfr*f)
			for _, g := range o.gaps {
				gaps = append(gaps, g*f)
			}
		}
	}
	return lat, ttfr, gaps
}

// generatorSamples gathers how late the load generator sent each visit
// and how long each waited for a client and a connection.
func generatorSamples(r *run) (late, wait []float64) {
	for _, o := range r.main.outs {
		late = append(late, o.lateness)
		wait = append(wait, o.connWait)
	}
	return late, wait
}

// endToEnd computes the metrics BENCHMARK.json lists under end_to_end
// from the run's untraced phases: every timing and rate at the reference
// speed of calib.go.
func endToEnd(r *run) map[string]metric {
	lat, ttfr, _ := samples(r.timed, true)
	return map[string]metric{
		"setup_s":           {median(r.refSetups), "s"},
		"ref_lat_p50_ms":    {num(finite(quantile(lat, 0.5))), "ms"},
		"ref_lat_p95_ms":    {num(finite(quantile(lat, 0.95))), "ms"},
		"ref_ttfr_p50_ms":   {num(finite(quantile(ttfr, 0.5))), "ms"},
		"ref_results_per_s": {r.refResults, "1/s"},
		"ref_capacity_rps":  {r.refCapacity, "1/s"},
		"retained_heap_mb":  {r.heapMiB, "MiB"},
	}
}

// finite maps the +Inf a failed visit contributes to the largest float,
// which JSON can carry; such a run is never correct.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-34s %14.6g %s\n", kind, k, ms[k].Value, ms[k].Unit)
	}
}

func printPhases(r *run) {
	for _, p := range r.phases {
		sent, failed := p.counts()
		fmt.Printf("phase %s/%s: sent %d succeeded %d failed %d (visits %d in %.2fs)\n",
			r.workload, p.name, sent, sent-failed, failed, len(p.outs), p.seconds)
		for _, o := range p.outs {
			if o.err != nil {
				fmt.Printf("  failure: %v\n", o.err)
				break
			}
		}
	}
}

// printExtras prints the end-to-end numbers BENCHMARK.json does not
// bound: the error rate, every timing and rate as measured (raw) with
// the sample count behind each tail, the p99 latency and the
// inter-result delays, and the calibration that turned the raw figures
// into the ref_* ones.
func printExtras(r *run) {
	sent, failed := r.counts()
	fmt.Printf("extra %-38s %14.6g ratio\n", "error_rate", float64(failed)/float64(max(sent, 1)))
	fmt.Printf("extra %-38s %14.6g ms (reference %g ms)\n", "calibration_probe_mean_ms", r.probeMs, refProbeMs)
	fmt.Printf("extra %-38s %14.6g s\n", "setup_raw_s", median(r.setups))
	lat, ttfr, gaps := samples(r.main, false)
	late, wait := generatorSamples(r)
	fmt.Printf("extra %-38s lateness p99 %.3f ms, connection wait p99 %.3f ms, %.2f visits/s dispatched\n",
		"loadgen", finite(quantile(late, 0.99)), finite(quantile(wait, 0.99)), float64(len(r.main.outs))/r.main.seconds)
	for _, s := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"lat_p50_ms", lat, 0.5}, {"lat_p95_ms", lat, 0.95}, {"lat_p99_ms", lat, 0.99},
		{"ttfr_p50_ms", ttfr, 0.5}, {"ttfr_p95_ms", ttfr, 0.95},
		{"delay_p50_us", gaps, 0.5}, {"delay_p99_us", gaps, 0.99}} {
		note := ""
		if s.q > 0.5 && len(s.xs) < tailSamples(s.q) {
			note = fmt.Sprintf(" (only %d samples; a p%g needs %d)", len(s.xs), s.q*100, tailSamples(s.q))
		}
		fmt.Printf("extra %-38s %14.6g from %d samples%s\n", s.name, finite(quantile(s.xs, s.q)), len(s.xs), note)
	}
	if r.timed != r.main {
		lat, ttfr, _ := samples(r.timed, false)
		for _, s := range []struct {
			name string
			xs   []float64
			q    float64
		}{{"lat_p50_ms", lat, 0.5}, {"lat_p95_ms", lat, 0.95}, {"ttfr_p50_ms", ttfr, 0.5}} {
			fmt.Printf("extra %-38s %14.6g from %d samples\n", r.timed.name+"."+s.name, finite(quantile(s.xs, s.q)), len(s.xs))
		}
	}
	fmt.Printf("extra %-38s %14.6g 1/s\n", "results_per_s", r.results)
	fmt.Printf("extra %-38s %14.6g 1/s\n", "capacity_rps", r.capacity)
	byClass := map[string][]float64{}
	for _, o := range r.main.outs {
		byClass[o.v.class] = append(byClass[o.v.class], o.latency())
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		fmt.Printf("class %-24s visits %5d  lat p50 %10.3f ms  max %10.3f ms\n", c, len(xs), finite(median(xs)), finite(quantile(xs, 1)))
	}
}

func printStamp(cfg config, r *run) {
	st := map[string]any{
		"workload":       r.workload,
		"seed":           cfg.seed,
		"request_sha256": r.hash,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"commit":         commit(),
		"source_sha256":  sourceHash(),
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"date":           time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", b)
}
