package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/service"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int // nproc: the most client goroutines and connections
}

// A run sets up at least setupRepeats times, and again until its set-ups
// total setupSeconds (at most maxSetups times); setup_s is their median,
// so a set-up of a few tens of milliseconds does not hang on one
// scheduler hiccup.
const (
	setupRepeats = 3
	setupSeconds = 1.0
	maxSetups    = 25
)

func setUpAgain(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return len(setups) < setupRepeats || total < setupSeconds && len(setups) < maxSetups
}

// coldPregen is how many cold-solve requests set-up generates; past
// them the loop generates more on demand, between visits.
const coldPregen = 200

// run is everything one workload run measured.
type run struct {
	workload string
	setups   []float64 // raw seconds of each set-up
	// refSetups are the same set-ups at the reference speed (calib.go).
	refSetups []float64
	hash      string
	phases    []*phase // every measured phase, in order
	main      *phase   // the phase the load generator's figures describe
	// timed is the phase the bounded latency metrics describe: main, but
	// on warm-serve its saturation phase (see runWarm).
	timed *phase
	// capacity is visits and results is result objects completed per
	// second, raw and at the reference speed.
	capacity, refCapacity float64
	results, refResults   float64
	probeMs               float64 // mean calibration probe time in the timed phase
	heapMiB               float64
	// passLen is, on orbit-sym, how many visits the HTTP run sent to each
	// fresh server; the traced replay starts a fresh stack as often.
	passLen int
	// warm is warm-serve's working set, which the replay warms again.
	warm *warmSet
}

func (r *run) counts() (sent, failed int) {
	for _, p := range r.phases {
		s, f := p.counts()
		sent += s
		failed += f
	}
	return sent, failed
}

// measure wraps one measured phase with /v1/stats and allocation
// snapshots.
func measure(ctx context.Context, srv *server, p *phase, body func()) error {
	before, err := srv.c.stats(ctx)
	if err != nil {
		return fmt.Errorf("stats before %s: %v", p.name, err)
	}
	m0 := memNow()
	start := time.Now()
	body()
	p.seconds += time.Since(start).Seconds()
	p.mem.add(diffMem(m0, memNow()))
	after, err := srv.c.stats(ctx)
	if err != nil {
		return fmt.Errorf("stats after %s: %v", p.name, err)
	}
	p.stats.add(diffStats(before, after))
	return nil
}

// runCold drives cold-solve: one client in a closed loop, every request
// a graph the server has never seen, until the time is up and the current
// block of 20 is complete.
func runCold(ctx context.Context, cfg config) (*run, error) {
	r := &run{workload: "cold-solve"}
	var srv *server
	defer closeIfOpen(&srv)
	var g *coldGen
	var pre []*visit
	var err error
	r.setups, r.refSetups, err = setUps(func() { srv.close() }, func() error {
		g = newColdGen(cfg.seed)
		pre = make([]*visit, coldPregen)
		for j := range pre {
			pre[j] = g.next()
		}
		srv = startServer(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.hash = hashVisits(pre)
	p := &phase{name: "closed-loop"}
	var cal calibrator
	cal.sample(0, 1)
	deadline := time.Now().Add(secs(cfg.seconds))
	i := 0
	next := func() *visit {
		if i%coldBlock == 0 && time.Now().After(deadline) {
			return nil
		}
		var v *visit
		if i < len(pre) {
			v = pre[i]
		} else {
			v = g.next()
		}
		i++
		return v
	}
	if err := measure(ctx, srv, p, func() { p.outs = closedLoop(ctx, srv.c, &cal, next) }); err != nil {
		return nil, err
	}
	cal.sample(0, 1)
	p.scale = cal.scale()
	r.phases, r.main, r.timed, r.probeMs = []*phase{p}, p, p, cal.probeMs()
	r.closedRates(p)
	g, pre = nil, nil
	r.heapMiB = closeRetained(&srv)
	return r, nil
}

// runWarm drives warm-serve: an open loop at warmRate visits per second,
// then a closed loop with cfg.clients clients that measures capacity.
// The closed loop runs in segments of a second with a burst of
// calibration probes on cfg.clients cores at once between two segments,
// since it leaves no idle moment for a probe.
func runWarm(ctx context.Context, cfg config) (*run, error) {
	r := &run{workload: "warm-serve"}
	openDur := secs(cfg.seconds * 0.65)
	closedDur := secs(cfg.seconds * 0.35)
	var srv *server
	defer closeIfOpen(&srv)
	var g *warmGen
	var set *warmSet
	var due []time.Duration
	var visits, spare []*visit
	var err error
	r.setups, r.refSetups, err = setUps(func() { srv.close() }, func() error {
		set = newWarmSet()
		srv = startServer(cfg.clients)
		if err := warmUp(ctx, srv.c, set); err != nil {
			return err
		}
		g = newWarmGen(cfg.seed, set)
		due = poisson(rand.New(rand.NewSource(cfg.seed^0x5eed)), warmRate, openDur)
		visits = make([]*visit, len(due))
		for j := range visits {
			visits[j] = g.next()
		}
		spare = make([]*visit, int(warmRate*4*closedDur.Seconds()))
		for j := range spare {
			spare[j] = g.next()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.hash = hashVisits(append(append([]*visit(nil), visits...), spare...))

	open := &phase{name: "open-loop"}
	err = measure(ctx, srv, open, func() {
		open.outs = openLoop(ctx, srv.c, cfg.clients, time.Now(), due, visits)
	})
	if err != nil {
		return nil, err
	}
	closed := &phase{name: "closed-loop"}
	i := 0
	next := func() *visit {
		if i < len(spare) {
			i++
			return spare[i-1]
		}
		return g.next()
	}
	var segs []segment
	sat := calibrator{par: cfg.clients}
	err = measure(ctx, srv, closed, func() {
		sat.sample(1, burstProbes)
		end := time.Now().Add(closedDur)
		for time.Now().Before(end) {
			start := time.Now()
			stop := start.Add(time.Second)
			if stop.After(end) {
				stop = end
			}
			outs := saturate(ctx, srv.c, cfg.clients, stop, next)
			var s segment
			for _, o := range outs {
				s.visits++
				s.results += o.results
				s.seconds = max(s.seconds, o.end.Sub(start).Seconds())
			}
			if s.visits > 0 {
				segs = append(segs, s)
			}
			closed.outs = append(closed.outs, outs...)
			sat.sample(1, burstProbes)
		}
	})
	if err != nil {
		return nil, err
	}
	closed.scale = sat.scale()
	// The bounded latencies come from the saturation phase: at 70 visits/s
	// the vCPUs idle between visits, and how fast a busy host wakes them
	// set the open loop's latencies (their spread over ten seeds reached
	// 0.3 at p50 and 0.57 at p95) more than the program did. The open
	// loop's latencies are printed raw.
	r.phases, r.main, r.timed, r.probeMs = []*phase{open, closed}, open, closed, sat.probeMs()
	// The open loop's pace is set by its arrivals, so both rates come from
	// the saturation phase: the median over its segments.
	var caps, res []float64
	for _, s := range segs {
		caps = append(caps, float64(s.visits)/s.seconds)
		res = append(res, float64(s.results)/s.seconds)
	}
	r.capacity, r.refCapacity = median(caps), median(caps)/closed.scale
	r.results, r.refResults = median(res), median(res)/closed.scale
	r.warm = set
	g, visits, spare = nil, nil, nil
	r.heapMiB = closeRetained(&srv)
	return r, nil
}

// segment is what one segment of a saturation phase completed.
type segment struct {
	visits, results int
	seconds         float64 // from its start to its last visit's last byte
}

// runOrbit drives orbit-sym: one client drains every corpus graph under
// every cost with orbits=true, a fresh server for each pass so that every
// drain misses the caches, until the time is up and the pass is complete.
func runOrbit(ctx context.Context, cfg config) (*run, error) {
	r := &run{workload: "orbit-sym"}
	var srv *server
	defer closeIfOpen(&srv)
	var g *orbitGen
	var passes [][]*visit
	var err error
	r.setups, r.refSetups, err = setUps(func() { srv.close() }, func() error {
		corpus := orbitCorpus()
		for _, og := range corpus {
			n, err := countTriangulations(ctx, og)
			if err != nil {
				return err
			}
			og.total = n
		}
		g = &orbitGen{rng: rand.New(rand.NewSource(cfg.seed)), corpus: corpus}
		passes = nil
		for j := 0; j < orbitPregen; j++ {
			passes = append(passes, g.pass())
		}
		srv = startServer(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.passLen = len(g.corpus) * len(orbitCosts)
	var all []*visit
	for _, ps := range passes {
		all = append(all, ps...)
	}
	r.hash = hashVisits(all)

	p := &phase{name: "closed-loop"}
	var cal calibrator
	cal.sample(0, 1)
	deadline := time.Now().Add(secs(cfg.seconds))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if k > 0 {
			srv.close()
			start := time.Now()
			srv = startServer(1)
			p.seconds += time.Since(start).Seconds()
		}
		var pass []*visit
		if k < len(passes) {
			pass = passes[k]
		} else {
			pass = g.pass()
		}
		i := 0
		next := func() *visit {
			if i == len(pass) {
				return nil
			}
			i++
			return pass[i-1]
		}
		if err := measure(ctx, srv, p, func() { p.outs = append(p.outs, closedLoop(ctx, srv.c, &cal, next)...) }); err != nil {
			return nil, err
		}
	}
	cal.sample(0, 1)
	p.scale = cal.scale()
	r.phases, r.main, r.timed, r.probeMs = []*phase{p}, p, p, cal.probeMs()
	r.closedRates(p)
	g, passes, all = nil, nil, nil
	r.heapMiB = closeRetained(&srv)
	return r, nil
}

// orbitPregen is how many orbit-sym passes set-up generates; past them
// the loop generates more on demand, between passes.
const orbitPregen = 4

// closedRates sets a one-client closed loop's visits and result objects
// per second of its busy time, raw and at the reference speed.
func (r *run) closedRates(p *phase) {
	n, busy := 0, 0.0
	for _, o := range p.outs {
		n += o.results
		busy += o.end.Sub(o.due).Seconds()
	}
	refBusy := busy * p.scale
	r.capacity, r.results = float64(len(p.outs))/busy, float64(n)/busy
	r.refCapacity, r.refResults = float64(len(p.outs))/refBusy, float64(n)/refBusy
}

func closeIfOpen(srv **server) {
	if *srv != nil {
		(*srv).close()
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// countTriangulations drains the plain stream of og's graph: the count
// every orbit drain's orbit sizes must add up to.
func countTriangulations(ctx context.Context, og *orbitGraph) (int64, error) {
	s, err := core.New(ctx, og.g, cost.Width{}, core.Options{})
	if err != nil {
		return 0, fmt.Errorf("count %s: %v", og.name, err)
	}
	if err := s.Prepare(ctx); err != nil {
		return 0, fmt.Errorf("count %s: %v", og.name, err)
	}
	e := s.EnumerateContext(ctx)
	var n int64
	for {
		if _, ok := e.Next(); !ok {
			return n, nil
		}
		n++
	}
}

func newWarmSet() *warmSet {
	cg, doms := cspTemplate()
	return &warmSet{tpls: warmTemplates(), cspG: cg, cspDoms: doms, hyper: hyperTemplate()}
}

// warmUp pages every template's stream to warmDepth through a session it
// keeps open until the speculative producer has filled its lookahead,
// records each template's own costs as the checker's reference, and then
// closes the sessions. After it, no warm visit needs a solve.
func warmUp(ctx context.Context, c *client, set *warmSet) error {
	var tokens []string
	page := func(path string, body []byte, p *problem, csp bool) ([]float64, error) {
		o := &outcome{}
		var resp service.EnumerateResponse
		if err := c.sendJSON(ctx, o, http.MethodPost, path, body, &resp); err != nil {
			return nil, fmt.Errorf("warm-up %s: %v", path, err)
		}
		if err := check(&delivery{prob: p, results: resp.Results, csp: resp.CSP, wantCSP: csp}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %v", path, err)
		}
		if !resp.Done && resp.Session != "" {
			tokens = append(tokens, resp.Session)
		}
		var costs []float64
		for _, r := range resp.Results {
			costs = append(costs, r.Cost)
		}
		return costs, nil
	}
	var err error
	for _, t := range set.tpls {
		req := edgeRequest(t.g, t.cost)
		req.PageSize = warmDepth
		if t.ref, err = page("/v1/enumerate", mustJSON(req), clientProblem(t.g), false); err != nil {
			return err
		}
	}
	cp := clientProblem(set.cspG)
	cp.csp = colouring(set.cspG)
	creq := service.CSPRequest{Domains: set.cspDoms, Constraints: cp.csp, PageSize: warmDepth, Solve: true}
	if set.cspRef, err = page("/v1/csp", mustJSON(creq), cp, true); err != nil {
		return err
	}
	hreq := service.EnumerateRequest{Hyperedges: set.hyper, PageSize: warmDepth}
	if set.hyperRef, err = page("/v1/hypergraph", mustJSON(hreq), clientProblem(hyperPrimal(set.hyper, 12)), false); err != nil {
		return err
	}
	// Wait for the producers to fill their lookahead: three unchanged
	// polls in a row.
	last, same := uint64(0), 0
	for same < 3 {
		time.Sleep(20 * time.Millisecond)
		st, err := c.stats(ctx)
		if err != nil {
			return fmt.Errorf("warm-up stats: %v", err)
		}
		if n := st.Prefetch.PrefetchSolves + st.Prefetch.DemandSolves; n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	for _, tok := range tokens {
		if err := c.deleteSession(ctx, &outcome{}, tok); err != nil {
			return fmt.Errorf("warm-up: %v", err)
		}
	}
	return nil
}
