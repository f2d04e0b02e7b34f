package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// layerSet collects the replay's spans by name.
type layerSet struct {
	byName map[string][]*span
	self   map[int64]float64 // span id → duration minus its children's
	byReq  map[int][]*span
}

func newLayerSet(spans []span) *layerSet {
	ls := &layerSet{byName: map[string][]*span{}, self: map[int64]float64{}, byReq: map[int][]*span{}}
	child := map[int64]float64{}
	for i := range spans {
		s := &spans[i]
		ls.byName[s.Name] = append(ls.byName[s.Name], s)
		ls.byReq[s.Req] = append(ls.byReq[s.Req], s)
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	for i := range spans {
		ls.self[spans[i].ID] = spans[i].dur() - child[spans[i].ID]
	}
	return ls
}

// values returns f over every span called name.
func (ls *layerSet) values(name string, f func(*span) float64) []float64 {
	var out []float64
	for _, s := range ls.byName[name] {
		out = append(out, f(s))
	}
	return out
}

func (ls *layerSet) q(name string, q, scale float64) float64 {
	return num(quantile(ls.values(name, func(s *span) float64 { return s.dur() }), q) / scale)
}

// perItem is a span's total over the items it handled (its N), scaled.
func (ls *layerSet) perItem(name string, f func(*span) float64, scale float64) float64 {
	tot, n := 0.0, 0
	for _, s := range ls.byName[name] {
		tot += f(s)
		n += s.N
	}
	return ratio(tot, float64(n)) / scale
}

// num maps the NaN of an empty sample to 0: the layer did no such work on
// this workload.
func num(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// solverLayer reports whether a span's self time is solver work.
func solverLayer(name string) bool {
	switch name {
	case "core.init", "core.first", "core.next", "core.orbit_next", "core.select", "ckk.first", "ckk.next":
		return true
	}
	return false
}

// traced replays every visit of the run's measured phases through the
// layers three times — with spans, counting the spans' allocations, and
// with spans off — and derives the per-layer metrics. ok is false when a
// replayed visit delivered other costs than its HTTP response.
func traced(ctx context.Context, cfg config, r *run) (map[string]metric, bool, error) {
	var outs []*outcome
	for _, p := range r.phases {
		outs = append(outs, p.outs...)
	}
	rc := newRecorder(true)
	on, _, ok, err := replayAll(ctx, r, outs, rc, true)
	if err != nil {
		return nil, false, err
	}
	counted := countAllocs(rc.spans)
	_, _, okCounted, err := replayAll(ctx, r, outs, counted, false)
	if err == nil {
		err = counted.filled()
	}
	if err != nil {
		return nil, false, err
	}
	_, offNs, okOff, err := replayAll(ctx, r, outs, newRecorder(false), false)
	if err != nil {
		return nil, false, err
	}
	ok = ok && okCounted && okOff
	fmt.Printf("trace: replayed all %d visits of the measured phases three times; replay costs match HTTP: %v\n", len(outs), ok)
	if err := writeSpans(cfg, rc.spans); err != nil {
		return nil, false, err
	}
	return layerMetrics(r, on, newLayerSet(rc.spans), outs, offNs), ok, nil
}

// replayAll replays outs' visits in order on a fresh stack — warmed as the
// HTTP server was, and fresh again for each orbit-sym pass — and returns
// the replayer, the visits' total time and whether each delivered the
// costs of its HTTP response. With shadows, a visit that built a solver is
// followed by its sibling measurements.
func replayAll(ctx context.Context, r *run, outs []*outcome, rc *recorder, shadows bool) (*replayer, float64, bool, error) {
	rp := &replayer{ctx: ctx, rc: rc}
	defer func() {
		if rp.stk != nil {
			rp.stk.close()
		}
	}()
	ok := true
	var ns float64
	for i, o := range outs {
		if i == 0 || r.passLen > 0 && i%r.passLen == 0 {
			if rp.stk != nil {
				rp.stk.close()
			}
			rp.stk = newStack()
			if r.warm != nil {
				if err := rp.warm(r.warm); err != nil {
					return nil, 0, false, err
				}
			}
		}
		rc.req = i
		t := time.Now()
		costs, err := rp.visit(o.v, shadows, shadows && r.passLen > 0 && i < r.passLen)
		ns += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return nil, 0, false, fmt.Errorf("replay visit %d (%s): %v", o.v.id, o.v.class, err)
		}
		if !slices.EqualFunc(o.costs, costs, slices.Equal[[]float64]) {
			if ok {
				fmt.Printf("replay mismatch: visit %d (%s) delivered %v over HTTP, %v in the replay\n", o.v.id, o.v.class, o.costs, costs)
			}
			ok = false
		}
	}
	return rp, ns, ok, nil
}

// writeSpans writes the spans as gzipped JSON lines under
// .bench_build/traces of the directory the benchmark runs in.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %v", err)
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // errors only on an invalid level
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	for _, flush := range []func() error{bw.Flush, zw.Close, f.Close} {
		if ferr := flush(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return fmt.Errorf("trace file: %v", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// layerMetrics derives every per_layer metric of BENCHMARK.json. Traced
// metrics come from the replay's spans; stats, proc and loadgen metrics
// from the untraced HTTP phases of the same run.
func layerMetrics(r *run, rp *replayer, ls *layerSet, outs []*outcome, offNs float64) map[string]metric {
	const us, msec, mib = 1e3, 1e6, 1 << 20
	dur := func(s *span) float64 { return s.dur() }
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{num(v), unit} }

	// service
	set("service.decode_us_p50", "us", ls.q("service.decode", 0.5, us))
	set("service.pool_get_us_p50", "us", num(quantile(ls.values("service.pool_get", func(s *span) float64 { return ls.self[s.ID] }), 0.5))/us)
	set("service.session_us_p50", "us", ls.q("service.session", 0.5, us))
	set("service.stream_at_us_p50", "us", ls.q("service.stream_at", 0.5, us))
	set("service.stream_at_us_p99", "us", ls.q("service.stream_at", 0.99, us))
	set("service.egress_us_per_result", "us", ls.perItem("service.egress", dur, us))
	set("service.egress_allocs_per_result", "count", ls.perItem("service.egress", func(s *span) float64 { return float64(s.Allocs) }, 1))
	set("service.egress_bytes_per_result", "B", ls.perItem("service.egress", func(s *span) float64 { return float64(s.Bytes) }, 1))
	var st statsDelta
	var mem memDelta
	calls, delivered := 0, 0
	for _, p := range r.phases {
		st.add(p.stats)
		mem.add(p.mem)
		for _, o := range p.outs {
			calls += o.calls
			delivered += o.results
		}
	}
	set("service.pool_hit_ratio", "ratio", ratio(st.poolHits, st.poolHits+st.poolMisses))
	set("service.stream_hit_ratio", "ratio", ratio(st.streamHits, st.streamHits+st.streamMisses))
	set("service.stream_evictions", "count", st.evictions)
	set("service.stream_rebuilds", "count", st.rebuilds)
	set("service.prefetch_buffered_ratio", "ratio", ratio(st.bufferedHits, st.bufferedHits+st.demand))
	set("service.solves_per_delivered", "ratio", ratio(st.demand+st.prefetched, float64(delivered)))
	set("service.canon_relabeled_ratio", "ratio", ratio(st.relabeled, st.canonRequests))
	set("service.canon_fallbacks", "count", st.fallbacks)
	set("service.canon_hit_ratio", "ratio", ratio(st.canonHits, st.relabeled))

	// graph
	set("graph.build_us_p50", "us", ls.q("graph.build", 0.5, us))
	set("graph.canon_us_p50", "us", ls.q("graph.canon", 0.5, us))
	set("graph.canon_us_p99", "us", ls.q("graph.canon", 0.99, us))
	set("graph.canon_allocs_p50", "count", quantile(ls.values("graph.canon", func(s *span) float64 { return float64(s.Allocs) }), 0.5))
	set("graph.aut_us_p50", "us", ls.q("graph.aut", 0.5, us))

	// minsep, pmc, atoms (sibling calls on the inputs core.New received)
	count := func(s *span) float64 { return float64(s.N) }
	set("minsep.ms_p50", "ms", ls.q("minsep.all", 0.5, msec))
	set("minsep.seps_p50", "count", quantile(ls.values("minsep.all", count), 0.5))
	set("pmc.ms_p50", "ms", ls.q("pmc.all", 0.5, msec))
	set("pmc.pmcs_p50", "count", quantile(ls.values("pmc.all", count), 0.5))
	set("pmc.blocks_p50", "count", quantile(ls.values("pmc.blocks", count), 0.5))
	set("atoms.us_p50", "us", ls.q("atoms.decompose", 0.5, us))
	set("atoms.largest_p50", "count", quantile(ls.values("atoms.decompose", count), 0.5))

	// core
	set("core.init_ms_p50", "ms", ls.q("core.init", 0.5, msec))
	set("core.init_ms_p99", "ms", ls.q("core.init", 0.99, msec))
	var rest []float64
	for _, s := range ls.byName["core.init"] {
		d := s.dur()
		for _, sib := range ls.byReq[s.Req] {
			switch sib.Name {
			case "minsep.all", "pmc.all", "atoms.decompose":
				d -= sib.dur()
			}
		}
		rest = append(rest, d)
	}
	set("core.init_rest_ms_p50", "ms", quantile(rest, 0.5)/msec)
	set("core.init_mb_p50", "MiB", quantile(ls.values("core.init", func(s *span) float64 { return float64(s.Bytes) }), 0.5)/mib)
	set("core.first_us_p50", "us", ls.q("core.first", 0.5, us))
	set("core.next_us_p50", "us", ls.q("core.next", 0.5, us))
	set("core.next_us_p99", "us", ls.q("core.next", 0.99, us))
	set("core.solves_per_result", "ratio", ratio(float64(rp.solves), float64(rp.produced)))
	set("core.reused_block_ratio", "ratio", ratio(float64(rp.reused), float64(rp.reused+rp.dirty)))
	set("core.select_ms_p50", "ms", ls.q("core.select", 0.5, msec))
	set("core.orbit_next_us_p50", "us", ls.q("core.orbit_next", 0.5, us))
	os := rp.orbits.Snapshot()
	set("core.orbit_keyed_per_rep", "ratio", ratio(float64(os.Representatives+os.SkippedResults), float64(os.Representatives)))
	set("core.orbit_skipped_branches", "count", ratio(float64(os.SkippedBranches), float64(rp.orbitDrains)))
	orbitNs, plainNs := 0.0, 0.0
	for _, s := range ls.byName["core.plain_drain"] {
		plainNs += s.dur()
		for _, sib := range ls.byReq[s.Req] {
			switch sib.Name {
			case "core.init", "graph.aut", "core.orbit_next":
				orbitNs += sib.dur()
			}
		}
	}
	set("core.orbit_vs_plain_ratio", "ratio", ratio(orbitNs, plainNs))
	set("core.relabel_us_per_result", "us", ls.perItem("core.relabel", dur, us))
	set("core.diverse_us_p50", "us", ls.q("core.diverse", 0.5, us))

	// ckk, csp
	set("ckk.first_us_p50", "us", ls.q("ckk.first", 0.5, us))
	set("ckk.next_us_p50", "us", ls.q("ckk.next", 0.5, us))
	set("csp.solve_us_p50", "us", ls.q("csp.solve", 0.5, us))

	// loadgen
	late, wait := generatorSamples(r)
	set("loadgen.lateness_ms_p99", "ms", quantile(late, 0.99))
	set("loadgen.conn_wait_ms_p99", "ms", quantile(wait, 0.99))
	set("loadgen.achieved_rps", "1/s", float64(len(r.main.outs))/r.main.seconds)

	// proc
	set("proc.alloc_kb_per_req", "KiB", ratio(mem.allocBytes, float64(calls))/1024)
	set("proc.gc_cycles", "count", mem.gcCycles)
	set("proc.gc_pause_ms", "ms", mem.gcPauseMs)

	// trace: coverage of the replay against the HTTP run
	attributed, httpNs, onNs, solverNs := 0.0, 0.0, 0.0, 0.0
	for _, o := range outs {
		httpNs += o.latency() * 1e6
	}
	for _, spans := range ls.byReq {
		for _, s := range spans {
			switch {
			case s.Shadow:
			case s.Name == "request":
				onNs += s.dur()
			default:
				attributed += ls.self[s.ID]
				if solverLayer(s.Name) {
					solverNs += ls.self[s.ID]
				}
			}
		}
	}
	set("trace.unattributed_share", "ratio", 1-ratio(attributed, httpNs))
	set("trace.overhead_share", "ratio", ratio(onNs-offNs, offNs))

	printPredictions(r, st, ratio(solverNs, onNs), ratio(orbitNs, plainNs))
	return m
}

// printPredictions reports the workload-split predictions the per-layer
// numbers must confirm.
func printPredictions(r *run, st statsDelta, solverShare, orbitRatio float64) {
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "FAILED"
	}
	switch r.workload {
	case "cold-solve":
		fmt.Printf("prediction: solver layers take most of cold-solve's replayed request time: share %.3f — %s\n", solverShare, verdict(solverShare > 0.5))
	case "warm-serve":
		fmt.Printf("prediction: solver layers take under a tenth of warm-serve's replayed request time: share %.3f — %s\n", solverShare, verdict(solverShare < 0.1))
		fmt.Printf("prediction: warm-serve's measured phases run zero constrained solves: stats delta %.0f — %s\n", st.constrained, verdict(st.constrained == 0))
	case "orbit-sym":
		extra := 1 - ratio(1, orbitRatio)
		fmt.Printf("prediction: orbit minus plain drain time is most of orbit-sym's drain time: share %.3f — %s\n", extra, verdict(extra > 0.5))
	}
}
