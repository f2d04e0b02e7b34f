package core

import (
	"context"
	"math"

	"repro/internal/chordal"
	"repro/internal/ckk"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/td"
	"repro/internal/vset"
)

// BackendKind names an enumeration strategy. The serving tier treats it as
// an opaque routing token: it selects which machine produces the Result
// stream, and keys caches so streams from different backends never alias.
type BackendKind string

const (
	// BackendAuto defers the choice to SelectBackend's separator probe.
	BackendAuto BackendKind = "auto"
	// BackendDP is the ranked-exact Bouchitté–Todinca DP with Lawler–Murty
	// enumeration (RankedTriang): results in non-decreasing cost order, at
	// the price of a |MinSep|-exponential PMC-table initialization.
	BackendDP BackendKind = "dp"
	// BackendMIS is the Carmeli–Kenig–Kimelfeld separator-graph
	// maximal-independent-set enumeration: no init to speak of, incremental
	// polynomial time, results in no particular order.
	BackendMIS BackendKind = "mis"
	// BackendMISScored is BackendMIS with a cheap heuristic score ordering
	// the move frontier best-first (the C++ TriangulationScoringCriterion
	// idea): results trend cheap-first with no exactness claim.
	BackendMISScored BackendKind = "mis-scored"
)

// ParseBackendKind normalizes a user-supplied backend name. The empty
// string parses to BackendAuto so config and query-knob defaults compose.
func ParseBackendKind(s string) (BackendKind, bool) {
	switch s {
	case "", "auto":
		return BackendAuto, true
	case "dp", "ranked":
		return BackendDP, true
	case "mis", "ckk":
		return BackendMIS, true
	case "mis-scored", "scored":
		return BackendMISScored, true
	}
	return "", false
}

// Backend is an enumeration engine over one (graph, cost) pair. All
// backends produce the same Result stream shape through the same
// Enumerator front, and every backend's enumeration order is
// deterministic — the contract SharedStream's evict-and-replay depends
// on — so the shared-stream cache, sessions and NDJSON fan-out work
// unchanged on any of them. Only Ranked distinguishes the semantics: a
// ranked backend emits in non-decreasing cost order, an unranked one
// merely emits each minimal triangulation exactly once.
type Backend interface {
	// BackendKind identifies the engine (never BackendAuto).
	BackendKind() BackendKind
	// Ranked reports whether the stream is sorted by non-decreasing cost.
	Ranked() bool
	// Graph returns the input graph the backend enumerates over.
	Graph() *graph.Graph
	// Cost returns the cost the backend evaluates results under.
	Cost() cost.Cost
	// EnumerateContext starts a fresh enumeration bound to ctx (see
	// Solver.EnumerateContext for the cancellation semantics).
	EnumerateContext(ctx context.Context) *Enumerator
	// EnumerateParallelContext is EnumerateContext with the independent
	// sub-solves of each Next fanned over a worker pool where the machine
	// supports it — the Lawler–Murty branch solves on the DP backend. The
	// emitted sequence is identical for every worker count; machines with
	// no parallelizable inner step (the MIS walk is inherently sequential)
	// ignore workers and behave exactly like EnumerateContext.
	EnumerateParallelContext(ctx context.Context, workers int) *Enumerator
}

// BackendKind on a Solver: the ranked-exact DP.
func (s *Solver) BackendKind() BackendKind { return BackendDP }

// Ranked on a Solver: the whole point of RankedTriang.
func (s *Solver) Ranked() bool { return true }

// misBackend adapts the internal/ckk enumeration to the Backend contract:
// each CKK result (a chordal graph plus its minimal separators) is lifted
// to a full Result by building its clique tree and evaluating the cost on
// the tree's bags. Construction is O(1) — the separator stream and MIS
// machine start lazily on the first Next — which is exactly the property
// the serving tier buys when the DP's init budget is blown.
type misBackend struct {
	g      *graph.Graph
	c      cost.Cost
	bound  int // maximum admissible treewidth; < 0 means unbounded
	scored bool
}

// MISOptions tunes a MIS backend. The zero value is ready to use.
type MISOptions struct {
	// WidthBound drops results of treewidth exceeding the bound when
	// non-nil, mirroring Options.WidthBound. Unlike the DP — whose PMC
	// filter prunes the search space — the MIS walk must still visit
	// over-wide triangulations to reach their neighbors, so the bound is a
	// post-filter here, not a speed-up.
	WidthBound *int
	// Scored orders the move frontier best-first by the true cost of each
	// discovered triangulation (see BackendMISScored).
	Scored bool
}

// NewMISBackend returns the CKK separator-graph MIS backend for (g, c).
func NewMISBackend(g *graph.Graph, c cost.Cost, opts MISOptions) Backend {
	bound := -1
	if opts.WidthBound != nil {
		bound = *opts.WidthBound
	}
	return &misBackend{g: g, c: c, bound: bound, scored: opts.Scored}
}

func (b *misBackend) BackendKind() BackendKind {
	if b.scored {
		return BackendMISScored
	}
	return BackendMIS
}

func (b *misBackend) Ranked() bool        { return false }
func (b *misBackend) Graph() *graph.Graph { return b.g }
func (b *misBackend) Cost() cost.Cost     { return b.c }

// EnumerateParallelContext on the MIS backend ignores workers: the
// separator-graph MIS walk advances one move at a time with nothing
// independent to fan out (each move's admissibility depends on the set
// reached so far), so parallel and sequential enumeration coincide.
func (b *misBackend) EnumerateParallelContext(ctx context.Context, workers int) *Enumerator {
	return b.EnumerateContext(ctx)
}

func (b *misBackend) EnumerateContext(ctx context.Context) *Enumerator {
	m := &misEnumerator{b: b, ctx: ctx}
	if b.g.NumVertices() == 0 {
		// Mirror the DP's empty-graph convention (see Solver.MinTriang):
		// one empty triangulation, no trip through the MIS machinery.
		m.empty = true
		return &Enumerator{m: m}
	}
	if b.scored {
		// The heuristic score of a pending MIS result is the true cost of
		// that triangulation — cheap to evaluate (its maximal cliques are
		// the clique-tree bags), and it steers both emission and the move
		// frontier toward cheap neighborhoods first.
		m.inner = ckk.NewScored(b.g, nil, func(r *ckk.Result) float64 {
			bags, err := chordal.MaximalCliques(r.H)
			if err != nil {
				return math.Inf(1)
			}
			return b.c.Eval(b.g, bags)
		})
	} else {
		m.inner = ckk.New(b.g, nil)
	}
	return &Enumerator{m: m}
}

// misEnumerator is the machine lifting ckk results to core Results.
type misEnumerator struct {
	b     *misBackend
	ctx   context.Context
	inner *ckk.Enumerator
	empty bool // emit the single empty-graph result, then exhaust
	done  bool
}

func (m *misEnumerator) Next() (*Result, bool) {
	if m.done || m.ctx.Err() != nil {
		return nil, false
	}
	if m.empty {
		m.done = true
		g := m.b.g
		return &Result{H: g.Clone(), Tree: td.New(), Cost: m.b.c.Eval(g, nil)}, true
	}
	for {
		r, ok := m.inner.NextContext(m.ctx)
		if !ok {
			m.done = true
			return nil, false
		}
		tree, err := chordal.CliqueTree(r.H)
		if err != nil {
			panic("core: ckk emitted a non-chordal triangulation: " + err.Error())
		}
		if m.b.bound >= 0 && tree.Width() > m.b.bound {
			continue
		}
		bags := append([]vset.Set(nil), tree.Bags...)
		return &Result{
			H:    r.H,
			Tree: tree,
			Bags: bags,
			Seps: r.Seps,
			Cost: m.b.c.Eval(m.b.g, bags),
		}, true
	}
}

// DefaultProbeBudget is the separator budget SelectBackend probes under
// when the caller passes no budget. The DP's init cost is driven by
// |MinSep| (the PMC table is built over it), so "more than a couple
// thousand separators" is the practical signature of a graph whose ranked
// init will blow a serving-tier timeout.
const DefaultProbeBudget = 2048

// SelectBackend resolves BackendAuto for a graph: it draws minimal
// separators from the streaming Berry–Bordat generator — the same lazy
// source the MIS backend itself uses, so the probe's cost is a strict
// prefix of work either backend would do anyway — and picks the ranked DP
// only when the separator universe provably exhausts under probeBudget
// (<= 0 selects DefaultProbeBudget). Budget overflow, or ctx expiring
// mid-probe, both mean "too separator-rich to rank" and select MIS. An
// explicit kind short-circuits the probe entirely.
func SelectBackend(ctx context.Context, g *graph.Graph, kind BackendKind, probeBudget int) BackendKind {
	if kind != BackendAuto && kind != "" {
		return kind
	}
	if probeBudget <= 0 {
		probeBudget = DefaultProbeBudget
	}
	ss := ckk.NewSepStream(g)
	for n := 0; n < probeBudget; n++ {
		if _, ok := ss.Next(ctx); !ok {
			if ctx.Err() != nil {
				return BackendMIS
			}
			return BackendDP
		}
	}
	return BackendMIS
}
