package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/service"
)

// server is one in-process daemon behind a loopback listener.
type server struct {
	svc *service.Server
	ts  *httptest.Server
	c   *client
}

func startServer(conns int) *server {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	return &server{svc: svc, ts: ts, c: newClient(ts.URL, conns)}
}

func (s *server) close() {
	s.c.close()
	s.ts.Close()
	s.svc.Close()
}

// phase is one measured stretch of load.
type phase struct {
	name    string
	outs    []*outcome
	seconds float64
	// scale converts the phase's timings to the reference speed
	// (calib.go); set on the phases the bounded metrics come from.
	scale float64
	stats statsDelta
	mem   memDelta
}

func (p *phase) counts() (sent, failed int) {
	for _, o := range p.outs {
		sent += o.calls
		failed += o.failed
	}
	return sent, failed
}

// closedLoop runs visits back to back on one client until next returns
// nil, timing a calibration probe between two visits once probeEvery has
// passed; each visit is due when the client sends it, and the generator's
// lateness is its own time between the previous visit's last byte (or
// probe) and this send.
func closedLoop(ctx context.Context, c *client, cal *calibrator, next func() *visit) []*outcome {
	var outs []*outcome
	prev := time.Now()
	for v := next(); v != nil; v = next() {
		if cal.due() {
			cal.sample(0, 1)
			prev = cal.last
		}
		start := time.Now()
		o := c.run(ctx, v, start)
		o.lateness = ms(start.Sub(prev))
		prev = o.end
		outs = append(outs, o)
	}
	return outs
}

// saturate runs clients closed loops at once until the deadline and
// returns every outcome.
func saturate(ctx context.Context, c *client, clients int, deadline time.Time, next func() *visit) []*outcome {
	var mu sync.Mutex
	var outs []*outcome
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				v := next()
				mu.Unlock()
				o := c.run(ctx, v, time.Now())
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// poisson returns the due offsets of a Poisson arrival process at rate
// per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// openLoop dispatches visits[i] at start+due[i] to the first free of
// clients workers. A visit's latency counts from its due time, so a
// stall shows in every visit queued behind it. The generator's lateness
// is how long after the due time it dispatched; the wait for a free
// client counts as connection wait.
func openLoop(ctx context.Context, c *client, clients int, start time.Time, due []time.Duration, visits []*visit) []*outcome {
	type job struct {
		v         *visit
		due, sent time.Time
	}
	work := make(chan job)
	var outs []*outcome
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				got := time.Now()
				o := c.run(ctx, j.v, j.due)
				o.lateness = ms(j.sent.Sub(j.due))
				o.connWait += ms(got.Sub(j.sent))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		work <- job{visits[i], at, time.Now()}
	}
	close(work)
	wg.Wait()
	return outs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// statsDelta is the difference of two /v1/stats snapshots in the fields
// the per-layer metrics read.
type statsDelta struct {
	poolHits, poolMisses             float64
	streamHits, streamMisses         float64
	evictions, rebuilds              float64
	bufferedHits, demand, prefetched float64
	constrained                      float64
	canonRequests, relabeled         float64
	fallbacks, canonHits             float64
}

func diffStats(a, b *service.StatsResponse) statsDelta {
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	return statsDelta{
		poolHits:      d(a.Pool.Hits, b.Pool.Hits),
		poolMisses:    d(a.Pool.Misses, b.Pool.Misses),
		streamHits:    d(a.Streams.Hits, b.Streams.Hits),
		streamMisses:  d(a.Streams.Misses, b.Streams.Misses),
		evictions:     d(a.Streams.Evictions, b.Streams.Evictions),
		rebuilds:      d(a.Streams.Rebuilds, b.Streams.Rebuilds),
		bufferedHits:  d(a.Prefetch.BufferedHits, b.Prefetch.BufferedHits),
		demand:        d(a.Prefetch.DemandSolves, b.Prefetch.DemandSolves),
		prefetched:    d(a.Prefetch.PrefetchSolves, b.Prefetch.PrefetchSolves),
		constrained:   d(a.Solver.ConstrainedSolves, b.Solver.ConstrainedSolves),
		canonRequests: d(a.Canon.Requests, b.Canon.Requests),
		relabeled:     d(a.Canon.Relabeled, b.Canon.Relabeled),
		fallbacks:     d(a.Canon.Fallbacks, b.Canon.Fallbacks),
		canonHits:     d(a.Canon.Hits, b.Canon.Hits),
	}
}

func (s *statsDelta) add(o statsDelta) {
	s.poolHits += o.poolHits
	s.poolMisses += o.poolMisses
	s.streamHits += o.streamHits
	s.streamMisses += o.streamMisses
	s.evictions += o.evictions
	s.rebuilds += o.rebuilds
	s.bufferedHits += o.bufferedHits
	s.demand += o.demand
	s.prefetched += o.prefetched
	s.constrained += o.constrained
	s.canonRequests += o.canonRequests
	s.relabeled += o.relabeled
	s.fallbacks += o.fallbacks
	s.canonHits += o.canonHits
}

// memDelta is the process's allocation and GC work over a phase; the
// load generator shares the process, so its own allocations count too.
type memDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: float64(b.TotalAlloc - a.TotalAlloc),
		gcCycles:   float64(b.NumGC - a.NumGC),
		gcPauseMs:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

func (m *memDelta) add(o memDelta) {
	m.allocBytes += o.allocBytes
	m.gcCycles += o.gcCycles
	m.gcPauseMs += o.gcPauseMs
}

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	m := memNow()
	return float64(m.HeapAlloc)
}

// closeRetained closes srv and returns the live heap it held in MiB: the
// heap after a full collection with the server up, less the heap once it
// is closed and unreachable, so the load generator's own state is not
// counted.
func closeRetained(srv **server) float64 {
	with := liveHeap()
	(*srv).close()
	*srv = nil
	return (with - liveHeap()) / (1 << 20)
}
