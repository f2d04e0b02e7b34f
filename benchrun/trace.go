package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csp"
	"repro/internal/graph"
	"repro/internal/hyper"
	"repro/internal/minsep"
	"repro/internal/pmc"
	"repro/internal/service"
)

// span is one timed call into a layer's public function during the
// traced replay. Spans of one visit share Req; Parent is 0 at the top.
// A shadow span is a sibling measurement made after the visit, off its
// path: it repeats work the visit's own calls did internally.
//
// Allocs and Bytes are the heap objects and bytes the call allocated,
// counted exactly in a separate allocation pass over the same calls
// (shadow spans have none). A span with nested spans also counts their
// few bookkeeping objects.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	N      int    `json:"n,omitempty"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory. A nil *openSpan is what a disabled
// recorder hands out, so the replay code is the same with spans off.
//
// A recorder made by countAllocs instead fills in the allocation counts
// of spans a timing pass recorded: the exact count needs
// runtime.ReadMemStats, whose stop-the-world and cache flush would slow
// the calls around it, so the timing pass does not read allocations at
// all. (runtime/metrics is cheap but inexact: it only sees objects whose
// span the allocation cache has already retired.)
type recorder struct {
	on     bool
	t0     time.Time
	req    int
	shadow bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// allocation pass: the timing pass's spans, the next one to fill, and
	// the first call that did not match it
	fill     []span
	next     int
	mismatch error
	ms       runtime.MemStats
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// countAllocs returns the recorder of an allocation pass that repeats the
// calls of spans, shadows aside, in the same order.
func countAllocs(spans []span) *recorder {
	return &recorder{on: true, t0: time.Now(), fill: spans}
}

// heapAllocs reads the process's cumulative heap allocations; rc.mu must
// be held. Every P's allocation cache is flushed first, so the counts are
// exact.
func (rc *recorder) heapAllocs() (objs, bytes uint64) {
	runtime.ReadMemStats(&rc.ms)
	return rc.ms.Mallocs, rc.ms.TotalAlloc
}

// filled reports whether the allocation pass matched every non-shadow
// span of the timing pass.
func (rc *recorder) filled() error {
	if rc.mismatch != nil {
		return rc.mismatch
	}
	for _, s := range rc.fill[rc.next:] {
		if !s.Shadow {
			return fmt.Errorf("allocation pass ended before span %d (%s)", s.ID, s.Name)
		}
	}
	return nil
}

type openSpan struct {
	rc          *recorder
	s           span
	objs, bytes uint64
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (rc *recorder) begin(name string, parent *openSpan) *openSpan {
	if !rc.on {
		return nil
	}
	o := &openSpan{rc: rc, s: span{Name: name, Req: rc.req, ID: rc.nextID.Add(1), Parent: parent.id(), Shadow: rc.shadow}}
	if rc.fill != nil {
		rc.mu.Lock()
		o.objs, o.bytes = rc.heapAllocs()
		rc.mu.Unlock()
	}
	o.s.Start = time.Since(rc.t0).Nanoseconds()
	return o
}

// rename names the span by what the call turned out to do.
func (o *openSpan) rename(name string) {
	if o != nil {
		o.s.Name = name
	}
}

// end closes the span; n is a count the call produced (results,
// separators, …), 0 when none applies.
func (o *openSpan) end(n int) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.rc.t0).Nanoseconds()
	rc := o.rc
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.fill == nil {
		o.s.N = n
		rc.spans = append(rc.spans, o.s)
		return
	}
	objs, bytes := rc.heapAllocs()
	for rc.next < len(rc.fill) && rc.fill[rc.next].Shadow {
		rc.next++
	}
	if rc.mismatch != nil {
		return
	}
	if rc.next == len(rc.fill) || rc.fill[rc.next].Name != o.s.Name || rc.fill[rc.next].Req != o.s.Req {
		rc.mismatch = fmt.Errorf("allocation pass diverged from the timing pass at visit %d, call %s", o.s.Req, o.s.Name)
		return
	}
	f := &rc.fill[rc.next]
	f.Allocs, f.Bytes = objs-o.objs, bytes-o.bytes
	rc.next++
}

// stack is a private copy of the serving tier built from its public
// parts. Its streams run without speculation and sequentially, so every
// solve the replay sees is one a result needed.
type stack struct {
	pool     *service.SolverPool
	streams  *service.StreamStore
	sessions *service.SessionManager
	// ended records the streams known to be exhausted: reading past their
	// end is a buffer check, while the first such read runs the engine.
	ended map[service.SolverKey]bool
}

func newStack() *stack {
	st := service.NewStreamStore(0, 64)
	st.Tune(1, 0, 0)
	return &stack{pool: service.NewSolverPool(64), streams: st, sessions: service.NewSessionManager(256, 5*time.Minute, st),
		ended: map[service.SolverKey]bool{}}
}

func (s *stack) close() {
	s.sessions.Close()
	s.streams.Close()
}

// compiled mirrors the server's compiled problem for one request.
type compiled struct {
	client    *graph.Graph
	g         *graph.Graph
	fromCanon []int
	c         cost.Cost
	key       service.SolverKey
	orbits    bool
}

// replayer replays visits through the layers in the order the handlers
// call them.
type replayer struct {
	ctx context.Context
	rc  *recorder
	stk *stack
	// per-replay tallies the layer metrics need beyond the spans
	orbits                core.OrbitCounters
	solves, dirty, reused uint64
	produced              int
	orbitDrains           int
}

// shadowWork names a solver a visit built, for the sibling measurements
// made after the visit.
type shadowWork struct {
	cp     *compiled
	solver *core.Solver
}

func (rp *replayer) decode(body []byte, v any, root *openSpan) error {
	sp := rp.rc.begin("service.decode", root)
	err := json.Unmarshal(body, v)
	sp.end(0)
	return err
}

// compile builds the graph, canonicalizes it and constructs the cost and
// cache key, as the server's compileProblem does.
func (rp *replayer) compile(req *service.EnumerateRequest, orbits bool, root *openSpan) (*compiled, error) {
	sp := rp.rc.begin("graph.build", root)
	var g *graph.Graph
	var h *hyper.Hypergraph
	if len(req.Hyperedges) > 0 {
		n := 0
		for _, e := range req.Hyperedges {
			for _, x := range e {
				n = max(n, x+1)
			}
		}
		h = hyper.New(n)
		for _, e := range req.Hyperedges {
			h.AddEdge(e...)
		}
		g = h.Primal()
	} else {
		g = graph.New(req.N)
		for _, e := range req.Edges {
			g.AddEdge(e[0], e[1])
		}
	}
	sp.end(0)
	cp := &compiled{client: g, g: g, orbits: orbits}
	sp = rp.rc.begin("graph.canon", root)
	canon, perm, exact := g.CanonicalForm()
	sp.end(0)
	doms := req.Domains
	if exact && !isIdentity(perm) {
		cp.g = canon
		cp.fromCanon = make([]int, len(perm))
		for v, p := range perm {
			cp.fromCanon[p] = v
		}
		if h != nil {
			nh := hyper.New(h.NumVertices())
			for _, e := range h.Edges() {
				nh.AddEdgeSet(e.Relabel(perm))
			}
			h = nh
		}
		if len(doms) == g.Universe() {
			doms = make([]int, len(req.Domains))
			for v, d := range req.Domains {
				doms[perm[v]] = d
			}
		}
	}
	sp = rp.rc.begin("service.compile", root)
	name := req.Cost
	var costKey string
	switch name {
	case "", "width":
		cp.c, costKey = cost.Width{}, "width"
	case "fill":
		cp.c, costKey = cost.FillIn{}, "fill"
	case "lex":
		cp.c, costKey = cost.LexWidthFill{}, "lex"
	case "statespace":
		cp.c, costKey = cost.TotalStateSpace{Domain: doms}, fmt.Sprintf("statespace%v", doms)
	case "hypertree":
		cp.c, costKey = h.HypertreeWidthCost(), "hypertree:"+edgeSetKey(h)
	default:
		sp.end(0)
		return nil, fmt.Errorf("replay: unsupported cost %q", name)
	}
	kind := core.BackendDP
	if req.Backend != "" {
		kind = core.BackendKind(req.Backend)
	}
	cp.key = service.SolverKey{Fingerprint: cp.g.Fingerprint(), Cost: costKey, Bound: -1, Backend: string(kind), Orbits: orbits}
	sp.end(0)
	return cp, nil
}

func isIdentity(perm []int) bool {
	for v, p := range perm {
		if v != p {
			return false
		}
	}
	return true
}

func edgeSetKey(h *hyper.Hypergraph) string {
	keys := make([]string, 0, len(h.Edges()))
	for _, e := range h.Edges() {
		keys = append(keys, e.Key())
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\x00")))
	return hex.EncodeToString(sum[:16])
}

// backend resolves routing, the pooled solver and the orbit wrapper as the
// server's buildBackend does. It returns the solver when the DP serves
// the request and whether that solver was built by this call.
func (rp *replayer) backend(cp *compiled, root *openSpan) (core.Backend, *core.Solver, bool, error) {
	kind := core.BackendKind(cp.key.Backend)
	if kind == core.BackendAuto {
		sp := rp.rc.begin("core.select", root)
		kind = core.SelectBackend(rp.ctx, cp.g, kind, 0)
		sp.end(0)
	}
	var b core.Backend
	var solver *core.Solver
	built := false
	if kind == core.BackendDP {
		poolKey := cp.key
		poolKey.Backend, poolKey.Orbits = string(core.BackendDP), false
		sp := rp.rc.begin("service.pool_get", root)
		s, _, err := rp.stk.pool.Get(rp.ctx, poolKey, func(bctx context.Context) (*core.Solver, error) {
			built = true
			isp := rp.rc.begin("core.init", sp)
			s, err := core.New(bctx, cp.g, cp.c, core.Options{})
			if err == nil {
				err = s.Prepare(bctx)
			}
			isp.end(0)
			return s, err
		})
		sp.end(0)
		if err != nil {
			return nil, nil, false, err
		}
		b, solver = s, s
	} else {
		b = core.NewMISBackend(cp.g, cp.c, core.MISOptions{})
	}
	cp.key.Backend = string(kind)
	if cp.orbits {
		b = core.NewOrbitBackend(b, &rp.orbits)
		if a, ok := b.(interface{ Aut() *graph.AutGroup }); ok {
			sp := rp.rc.begin("graph.aut", root)
			a.Aut()
			sp.end(0)
		}
	}
	return b, solver, built, nil
}

// atName names a StreamHandle.At call by the layer that does its work: a
// rank already in the buffer, or the known end of the stream, is a
// service read; otherwise the call runs the engine's Next, whose time
// dominates it.
func atName(b core.Backend, orbits, produced, first bool) string {
	switch {
	case !produced:
		return "service.stream_at"
	case orbits:
		return "core.orbit_next"
	case b.BackendKind() != core.BackendDP && first:
		return "ckk.first"
	case b.BackendKind() != core.BackendDP:
		return "ckk.next"
	case first:
		return "core.first"
	}
	return "core.next"
}

// wire is the TriangulationJSON the server sends for r over g.
func wire(g *graph.Graph, index int, r *core.Result) service.TriangulationJSON {
	bags := make([][]int, len(r.Bags))
	for i, b := range r.Bags {
		bags[i] = b.Slice()
	}
	seps := make([][]int, len(r.Seps))
	for i, s := range r.Seps {
		seps[i] = s.Slice()
	}
	return service.TriangulationJSON{Index: index, Cost: r.Cost, Width: r.Tree.Width(), Fill: r.H.NumEdges() - g.NumEdges(),
		OrbitSize: r.OrbitSize, Bags: bags, Seps: seps}
}

func (rp *replayer) relabel(cp *compiled, rs []*core.Result, root *openSpan) []*core.Result {
	if cp.fromCanon == nil || len(rs) == 0 {
		return rs
	}
	sp := rp.rc.begin("core.relabel", root)
	out := make([]*core.Result, len(rs))
	for i, r := range rs {
		out[i] = core.RelabelResult(r, cp.fromCanon)
	}
	sp.end(len(rs))
	return out
}

// encode is the egress of a paged response: wire conversion plus the JSON
// encode of the whole body.
func (rp *replayer) encode(resp *service.EnumerateResponse, g *graph.Graph, start int, rs []*core.Result, root *openSpan) {
	sp := rp.rc.begin("service.egress", root)
	resp.Results = make([]service.TriangulationJSON, len(rs))
	for i, r := range rs {
		resp.Results[i] = wire(g, start+i, r)
	}
	json.NewEncoder(io.Discard).Encode(resp)
	sp.end(len(rs))
}

func resultCosts(rs []*core.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Cost
	}
	return out
}

// solveStats snapshots the solver's incremental counters (zero for none).
func solveStats(s *core.Solver) core.ReuseStats {
	if s == nil {
		return core.ReuseStats{}
	}
	return s.ReuseStats()
}

func (rp *replayer) tally(s *core.Solver, before core.ReuseStats) {
	after := solveStats(s)
	rp.solves += after.ConstrainedSolves - before.ConstrainedSolves
	rp.dirty += after.DirtyBlocks - before.DirtyBlocks
	rp.reused += after.ReusedBlocks - before.ReusedBlocks
}

// shadowInit times minsep, pmc and atom decomposition as sibling calls on
// the inputs core.New received, per atom when the graph decomposes.
func (rp *replayer) shadowInit(cp *compiled, s *core.Solver) {
	rp.rc.shadow = true
	defer func() { rp.rc.shadow = false }()
	g := cp.g
	parts := []*graph.Graph{g}
	if m, ok := cp.c.(cost.Mergeable); ok && m.MergeKind() != cost.NoMerge && g.NumVertices() > 0 {
		sp := rp.rc.begin("atoms.decompose", nil)
		dec := atoms.Decompose(g)
		sp.end(dec.LargestAtom())
		if len(dec.Atoms) > 1 {
			parts = parts[:0]
			for _, a := range dec.Atoms {
				parts = append(parts, g.InducedSubgraph(a.Vertices))
			}
		}
	}
	seps, pmcs := 0, 0
	sp := rp.rc.begin("minsep.all", nil)
	for _, p := range parts {
		ss, _ := minsep.AllCtx(rp.ctx, p)
		seps += len(ss)
	}
	sp.end(seps)
	sp = rp.rc.begin("pmc.all", nil)
	for _, p := range parts {
		ps, _ := pmc.AllCtx(rp.ctx, p)
		pmcs += len(ps)
	}
	sp.end(pmcs)
	sp = rp.rc.begin("pmc.blocks", nil)
	sp.end(s.NumFullBlocks())
}

// shadowPlain drains the same graph and cost without orbit reduction:
// the plain side of core.orbit_vs_plain_ratio.
func (rp *replayer) shadowPlain(cp *compiled) {
	rp.rc.shadow = true
	defer func() { rp.rc.shadow = false }()
	sp := rp.rc.begin("core.plain_drain", nil)
	s, err := core.New(rp.ctx, cp.g, cp.c, core.Options{})
	n := 0
	if err == nil && s.Prepare(rp.ctx) == nil {
		e := s.EnumerateContext(rp.ctx)
		for _, ok := e.Next(); ok; _, ok = e.Next() {
			n++
		}
	}
	sp.end(n)
}

// visit replays one visit and returns the costs it delivered per problem.
// With shadows, a solver the visit built is measured again layer by layer
// after the visit, and with plain an orbit drain is repeated unreduced.
func (rp *replayer) visit(v *visit, shadows, plain bool) ([][]float64, error) {
	root := rp.rc.begin("request", nil)
	var res [][]float64
	var sh *shadowWork
	var err error
	switch v.op {
	case opStream:
		res, sh, err = rp.stream(v, root)
	case opBatch:
		res, err = rp.batch(v, root)
	case opCSP:
		res, err = rp.csp(v, root)
	default:
		res, err = rp.paged(v, root)
	}
	root.end(0)
	if err == nil && sh != nil && shadows {
		rp.shadowInit(sh.cp, sh.solver)
		if plain && sh.cp.orbits {
			rp.shadowPlain(sh.cp)
		}
	}
	return res, err
}

func (rp *replayer) stream(v *visit, root *openSpan) ([][]float64, *shadowWork, error) {
	var req service.EnumerateRequest
	if err := rp.decode(v.body, &req, root); err != nil {
		return nil, nil, err
	}
	cp, err := rp.compile(&req, strings.Contains(v.path, "orbits=true"), root)
	if err != nil {
		return nil, nil, err
	}
	b, solver, built, err := rp.backend(cp, root)
	if err != nil {
		return nil, nil, err
	}
	before := solveStats(solver)
	sp := rp.rc.begin("service.stream_acquire", root)
	h := rp.stk.streams.Acquire(cp.key, b)
	sp.end(0)
	enc := json.NewEncoder(io.Discard)
	var costs []float64
	for i := 0; req.MaxResults <= 0 || i < req.MaxResults; i++ {
		produced := i >= h.Buffered() && !rp.stk.ended[cp.key]
		sp := rp.rc.begin("service.stream_at", root)
		r, ok, err := h.At(rp.ctx, i)
		sp.rename(atName(b, cp.orbits, produced, i == 0))
		sp.end(0)
		if err == nil && !ok {
			rp.stk.ended[cp.key] = true
		}
		if err != nil {
			h.Release()
			return nil, nil, err
		}
		if !ok {
			break
		}
		if produced {
			rp.produced++
		}

		costs = append(costs, r.Cost)
		r = rp.relabel(cp, []*core.Result{r}, root)[0]
		esp := rp.rc.begin("service.egress", root)
		enc.Encode(wire(cp.client, i, r))
		esp.end(1)
	}
	enc.Encode(map[string]any{"done": true, "count": len(costs)})
	sp = rp.rc.begin("service.stream_release", root)
	h.Release()
	sp.end(0)
	rp.tally(solver, before)
	if cp.orbits {
		rp.orbitDrains++
	}
	var sh *shadowWork
	if built {
		sh = &shadowWork{cp: cp, solver: solver}
	}
	return [][]float64{costs}, sh, nil
}

// page serves one compiled problem's first page through a session, as
// the server's pagedResponse does; it returns the session when one stays
// open.
func (rp *replayer) page(cp *compiled, b core.Backend, size int, resp *service.EnumerateResponse, root *openSpan) (*service.Session, []*core.Result, error) {
	sp := rp.rc.begin("service.session", root)
	sess, err := rp.stk.sessions.Create(b, cp.key, cp.client, cp.fromCanon)
	if err != nil {
		sp.end(0)
		return nil, nil, err
	}
	_, rs, done, err := sess.NextPage(rp.ctx, size)
	if done {
		rp.stk.ended[cp.key] = true
	}
	if done || err != nil {
		rp.stk.sessions.Remove(sess.Token)
		sess = nil
	}
	sp.end(len(rs))
	if err != nil {
		return nil, nil, err
	}
	resp.Done = done
	return sess, rs, nil
}

func (rp *replayer) paged(v *visit, root *openSpan) ([][]float64, error) {
	var req service.EnumerateRequest
	if err := rp.decode(v.body, &req, root); err != nil {
		return nil, err
	}
	if v.op == opHyper && req.Cost == "" {
		req.Cost = "hypertree"
	}
	cp, err := rp.compile(&req, false, root)
	if err != nil {
		return nil, err
	}
	b, solver, _, err := rp.backend(cp, root)
	if err != nil {
		return nil, err
	}
	before := solveStats(solver)
	defer rp.tally(solver, before)
	if v.op == opDiverse {
		return rp.diverse(cp, b, root)
	}
	var resp service.EnumerateResponse
	sess, rs, err := rp.page(cp, b, req.PageSize, &resp, root)
	if err != nil {
		return nil, err
	}
	costs := resultCosts(rs)
	rp.encode(&resp, cp.client, 0, rp.relabel(cp, rs, root), root)
	if v.op == opPage {
		for i := 0; i < pageFollowUps && sess != nil; i++ {
			sp := rp.rc.begin("service.session", root)
			start, rs, done, err := sess.NextPage(rp.ctx, pageSize)
			if done {
				rp.stk.sessions.Remove(sess.Token)
				sess = nil
			}
			sp.end(len(rs))
			if err != nil {
				return nil, err
			}
			costs = append(costs, resultCosts(rs)...)
			var next service.EnumerateResponse
			rp.encode(&next, cp.client, start, rp.relabel(cp, rs, root), root)
		}
	}
	if sess != nil {
		sp := rp.rc.begin("service.session", root)
		rp.stk.sessions.Remove(sess.Token)
		sp.end(0)
	}
	return [][]float64{costs}, nil
}

func (rp *replayer) diverse(cp *compiled, b core.Backend, root *openSpan) ([][]float64, error) {
	sp := rp.rc.begin("service.stream_acquire", root)
	h := rp.stk.streams.Acquire(cp.key, b)
	sp.end(0)
	defer h.Release()
	var window []*core.Result
	for len(window) < diverseWindow {
		produced := len(window) >= h.Buffered() && !rp.stk.ended[cp.key]
		sp := rp.rc.begin("service.stream_at", root)
		r, ok, err := h.At(rp.ctx, len(window))
		sp.rename(atName(b, false, produced, len(window) == 0))
		sp.end(0)
		if err == nil && !ok {
			rp.stk.ended[cp.key] = true
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		window = append(window, r)
	}
	sp = rp.rc.begin("core.diverse", root)
	idx := core.DiverseSelect(cp.g, window, diverseK)
	sp.end(len(idx))
	picked := make([]*core.Result, len(idx))
	var costs []float64
	for i, j := range idx {
		picked[i] = window[j]
		costs = append(costs, window[j].Cost)
	}
	picked = rp.relabel(cp, picked, root)
	esp := rp.rc.begin("service.egress", root)
	resp := service.EnumerateResponse{Done: true, Diverse: diverseK, Window: len(window)}
	for i, r := range picked {
		resp.Results = append(resp.Results, wire(cp.client, idx[i], r))
	}
	json.NewEncoder(io.Discard).Encode(&resp)
	esp.end(len(picked))
	return [][]float64{costs}, nil
}

func (rp *replayer) batch(v *visit, root *openSpan) ([][]float64, error) {
	var req service.BatchRequest
	if err := rp.decode(v.body, &req, root); err != nil {
		return nil, err
	}
	cps := make([]*compiled, len(req.Problems))
	for i := range req.Problems {
		cp, err := rp.compile(&req.Problems[i], false, root)
		if err != nil {
			return nil, err
		}
		cps[i] = cp
	}
	var out [][]float64
	var items []service.BatchItem
	var open []*service.Session
	for i, cp := range cps {
		b, solver, _, err := rp.backend(cp, root)
		if err != nil {
			return nil, err
		}
		before := solveStats(solver)
		var resp service.EnumerateResponse
		sess, rs, err := rp.page(cp, b, req.Problems[i].PageSize, &resp, root)
		rp.tally(solver, before)
		if err != nil {
			return nil, err
		}
		out = append(out, resultCosts(rs))
		rs = rp.relabel(cp, rs, root)
		esp := rp.rc.begin("service.egress", root)
		for j, r := range rs {
			resp.Results = append(resp.Results, wire(cp.client, j, r))
		}
		esp.end(len(rs))
		items = append(items, service.BatchItem{Response: &resp})
		if sess != nil {
			open = append(open, sess)
		}
	}
	esp := rp.rc.begin("service.egress", root)
	json.NewEncoder(io.Discard).Encode(&service.BatchResponse{Items: items})
	esp.end(0)
	for _, s := range open {
		sp := rp.rc.begin("service.session", root)
		rp.stk.sessions.Remove(s.Token)
		sp.end(0)
	}
	return out, nil
}

func (rp *replayer) csp(v *visit, root *openSpan) ([][]float64, error) {
	var req service.CSPRequest
	if err := rp.decode(v.body, &req, root); err != nil {
		return nil, err
	}
	sp := rp.rc.begin("graph.build", root)
	p := csp.NewProblem(req.Domains)
	for _, c := range req.Constraints {
		p.Constrain(c.Scope[0], c.Scope[1])
		for _, t := range c.Allowed {
			p.Allow(c.Scope[0], c.Scope[1], t[0], t[1])
		}
	}
	ereq := service.EnumerateRequest{N: len(req.Domains), Edges: p.ConstraintGraph().Edges(), Cost: "statespace",
		Domains: append([]int(nil), req.Domains...), PageSize: req.PageSize}
	sp.end(0)
	cp, err := rp.compile(&ereq, false, root)
	if err != nil {
		return nil, err
	}
	b, solver, _, err := rp.backend(cp, root)
	if err != nil {
		return nil, err
	}
	before := solveStats(solver)
	var resp service.EnumerateResponse
	sess, rs, err := rp.page(cp, b, req.PageSize, &resp, root)
	rp.tally(solver, before)
	if err != nil {
		return nil, err
	}
	costs := resultCosts(rs)
	rs = rp.relabel(cp, rs, root)
	if req.Solve && len(rs) > 0 {
		sp := rp.rc.begin("csp.solve", root)
		asg, ok, err := p.Solve(rs[0].Tree)
		sp.end(0)
		if err != nil {
			return nil, err
		}
		resp.CSP = &service.CSPSolutionJSON{Satisfiable: ok, Assignment: asg}
	}
	rp.encode(&resp, cp.client, 0, rs, root)
	if sess != nil {
		sp := rp.rc.begin("service.session", root)
		rp.stk.sessions.Remove(sess.Token)
		sp.end(0)
	}
	return [][]float64{costs}, nil
}

// warm pages the warm-serve working set to warmDepth on the replay's
// stack, as the HTTP set-up did, with the recorder off.
func (rp *replayer) warm(set *warmSet) error {
	on := rp.rc.on
	rp.rc.on = false
	defer func() { rp.rc.on = on }()
	var open []*service.Session
	pageOf := func(req service.EnumerateRequest) error {
		cp, err := rp.compile(&req, false, nil)
		if err != nil {
			return err
		}
		b, _, _, err := rp.backend(cp, nil)
		if err != nil {
			return err
		}
		var resp service.EnumerateResponse
		sess, _, err := rp.page(cp, b, warmDepth, &resp, nil)
		if sess != nil {
			open = append(open, sess)
		}
		return err
	}
	for _, t := range set.tpls {
		if err := pageOf(edgeRequest(t.g, t.cost)); err != nil {
			return err
		}
	}
	p := csp.NewProblem(set.cspDoms)
	for _, c := range colouring(set.cspG) {
		p.Constrain(c.Scope[0], c.Scope[1])
	}
	creq := service.EnumerateRequest{N: len(set.cspDoms), Edges: p.ConstraintGraph().Edges(), Cost: "statespace", Domains: set.cspDoms}
	if err := pageOf(creq); err != nil {
		return err
	}
	if err := pageOf(service.EnumerateRequest{Hyperedges: set.hyper, Cost: "hypertree"}); err != nil {
		return err
	}
	for _, s := range open {
		rp.stk.sessions.Remove(s.Token)
	}
	return nil
}
