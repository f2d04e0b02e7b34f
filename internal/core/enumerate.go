package core

import (
	"container/heap"
	"context"
	"runtime"
	"sync"

	"repro/internal/intern"
)

// Enumerator streams the minimal triangulations of a graph. Obtain one
// from Solver.EnumerateContext (non-decreasing cost order) or any other
// core.Backend, and call Next until it reports exhaustion. It fronts one
// machine: the Lawler–Murty RankedTriang of Figure 4 on a monolithic
// solver, the ranked product-stream merge of the per-atom enumerations on
// a decomposed solver (product.go), the MIS walk (backend.go), or the
// orbit post-filter over any of these (orbit.go) — which is why the
// stream cache and serving tiers can treat every backend's output
// identically.
type Enumerator struct {
	m machine
}

// machine is one enumeration strategy behind an Enumerator.
type machine interface {
	Next() (*Result, bool)
}

// Next returns the next minimal triangulation, or ok=false when the
// enumeration is complete. Solver enumerators emit in non-decreasing cost
// order with time between consecutive calls polynomial in the
// initialization size (polynomial delay under poly-MS, Theorem 4.4) — for
// a decomposed solver, in the initialization size of the atoms. Other
// backends emit per their Ranked contract.
func (e *Enumerator) Next() (*Result, bool) { return e.m.Next() }

// lmEnumerator is the monolithic machine — the RankedTriang algorithm of
// Figure 4.
//
// Each partition of the unexplored space is an inclusion/exclusion
// constraint pair [I, X] held in a priority queue together with that
// partition's cheapest member; popping a partition emits its member and
// splits the remainder Lawler–Murty style over the member's minimal
// separators. Constraint pairs are kept in compiled form and extended by
// single-separator deltas, so a branch solve never recompiles its
// ancestors' constraints and reuses their precomputed dirty cones.
type lmEnumerator struct {
	s       *Solver
	ctx     context.Context // cancellation for the branch-solving hot loop
	queue   partitionQueue
	seq     int
	workers int // parallel branch solving when > 1
}

type partition struct {
	res *Result
	cc  *compiledConstraints // nil for the unconstrained root partition
	seq int
}

// partitionQueue is a min-heap on (cost, insertion sequence).
type partitionQueue []*partition

func (q partitionQueue) Len() int { return len(q) }
func (q partitionQueue) Less(i, j int) bool {
	if q[i].res.Cost != q[j].res.Cost {
		return q[i].res.Cost < q[j].res.Cost
	}
	return q[i].seq < q[j].seq
}
func (q partitionQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *partitionQueue) Push(x any)   { *q = append(*q, x.(*partition)) }
func (q *partitionQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// EnumerateContext starts RankedTriang⟨κ⟩(G) over the solver's
// precomputed structures, sequentially. The first result is a
// minimum-cost minimal triangulation. Once ctx is cancelled, Next stops
// solving Lawler–Murty branches and reports exhaustion, so an abandoned
// enumeration (e.g. a disconnected service session) stops burning CPU.
// Cancellation truncates the enumeration — results already queued are
// discarded, not drained. A background context makes every check a no-op.
func (s *Solver) EnumerateContext(ctx context.Context) *Enumerator {
	return s.EnumerateParallelContext(ctx, 1)
}

// EnumerateParallelContext is EnumerateContext with the Lawler–Murty
// branch optimizations solved by a pool of workers — the delay-reduction
// parallelization the paper sketches in Section 7.1 (footnote 3). A
// worker count of 1 means sequential; zero or negative means GOMAXPROCS.
// The emitted sequence is identical for every worker count: branches are
// re-ordered deterministically before entering the queue. The solver's
// static structures are read-only during enumeration, so the cost function
// must merely be safe for concurrent Eval calls (all built-ins are). On a
// decomposed solver the workers apply inside each atom's Lawler–Murty
// branch solving.
func (s *Solver) EnumerateParallelContext(ctx context.Context, workers int) *Enumerator {
	workers = effectiveWorkers(workers)
	if s.dec != nil {
		return &Enumerator{m: s.newProductEnumerator(ctx, workers)}
	}
	lm := &lmEnumerator{s: s, ctx: ctx, workers: workers}
	if ctx.Err() == nil {
		if r, err := s.MinTriang(nil); err == nil {
			lm.push(r, nil)
		}
	}
	return &Enumerator{m: lm}
}

func (e *lmEnumerator) push(r *Result, cc *compiledConstraints) {
	e.seq++
	heap.Push(&e.queue, &partition{res: r, cc: cc, seq: e.seq})
}

// Next pops the cheapest partition, emits its member and splits the
// remainder (see the Enumerator doc).
func (e *lmEnumerator) Next() (*Result, bool) {
	if len(e.queue) == 0 || e.ctx.Err() != nil {
		return nil, false
	}
	p := heap.Pop(&e.queue).(*partition)
	// Queued partitions carry their constraint masks in released form
	// (O(depth) memory); rebuild them before branching on this one.
	e.s.rematerialize(p.cc)

	// Split the remainder of the partition. Let S1..Sk be the minimal
	// separators of the popped triangulation outside I; branch i forces
	// S1..S_{i-1} in and Si out. Note the loop runs to k (not the paper's
	// k-1; see DESIGN.md — the k-th branch "all but Sk" is nonempty in
	// general and dropping it loses completeness). Separators are compared
	// by interned ID against the partition's include mask — no set keys
	// are hashed on this path.
	var fresh []int
	for _, id := range p.res.sepIDs {
		if p.cc == nil || !p.cc.includeIDs.Has(id) {
			fresh = append(fresh, id)
		}
	}
	// Build each branch's constraints as a delta on the partition's: one
	// appended exclusion over the accumulated inclusions. The branches are
	// then solved (in parallel when workers > 1) and pushed in branch
	// order, which keeps the queue state — and hence the output —
	// identical to the sequential run.
	//
	// A branch the separator-crossing test proves empty is never built or
	// solved (DESIGN.md, "Empty branches"): branch i holds a triangulation
	// H only if every exclusion x of the branch — the partition's and Si —
	// is crossed by a separator of H, hence by one that is neither Si, nor
	// excluded, nor crossing an inclusion. blocked collects the separators
	// so ruled out apart from Si and grows as Si joins the inclusion
	// chain, so an older exclusion can lose its last witness. A missing
	// crossing row (budget spent) only weakens the test: an exclusion
	// without a row is not tested, an inclusion without one blocks less.
	filter := !e.s.filterOff
	var blocked intern.Bitset
	var excluded []intern.Bitset
	if filter {
		blocked, excluded = e.s.blockedBy(p.cc)
	}
	branches := make([]*compiledConstraints, 0, len(fresh))
	cc := p.cc
	for i, id := range fresh {
		var row intern.Bitset
		if filter {
			row = e.s.crossRow(id)
		}
		if !filter || witnessed(blocked, id, row) && witnessed(blocked, id, excluded...) {
			branches = append(branches, e.s.extendConstraints(cc, id, false))
		} else {
			e.s.statSkipped.Add(1)
			if e.s.auditSkipped != nil {
				// The only error is ErrNoTriangulation, which leaves r nil.
				r, _ := e.s.minTriangCompiled(e.s.extendConstraints(cc, id, false))
				e.s.auditSkipped(r)
			}
		}
		if i+1 < len(fresh) {
			cc = e.s.extendConstraints(cc, id, true)
			if row != nil {
				blocked.Or(row)
			}
		}
	}
	results := make([]*Result, len(branches))
	if e.workers <= 1 || len(branches) <= 1 {
		for i, b := range branches {
			if e.ctx.Err() != nil {
				break
			}
			if r, err := e.s.minTriangCompiled(b); err == nil {
				results[i] = r
			}
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if e.ctx.Err() != nil {
						continue
					}
					if r, err := e.s.minTriangCompiled(branches[i]); err == nil {
						results[i] = r
					}
				}
			}()
		}
		for i := range branches {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for i, r := range results {
		if r != nil {
			branches[i].release()
			e.push(r, branches[i])
		}
	}
	return p.res, true
}

// blockedBy returns, over separator IDs, the separators no triangulation
// satisfying cc can contain — its exclusions, and every separator
// crossing one of its inclusions (the separators of a minimal
// triangulation are pairwise parallel) — and the crossing rows of its
// exclusions. A constraint whose crossing row is unavailable contributes
// no row, which keeps the set a sound under-approximation and leaves that
// exclusion untested. cc is a partition's constraint set, built by the
// split from interned separator IDs only.
func (s *Solver) blockedBy(cc *compiledConstraints) (blocked intern.Bitset, excluded []intern.Bitset) {
	blocked = intern.NewBitset(s.sepTab.Len())
	if cc == nil {
		return blocked, nil
	}
	for i := range cc.cons {
		info := &cc.cons[i]
		row := s.crossRow(info.sepID)
		if !info.include {
			blocked.Set(info.sepID)
			if row != nil {
				excluded = append(excluded, row)
			}
		} else if row != nil {
			blocked.Or(row)
		}
	}
	return blocked, excluded
}

// witnessed reports whether every non-nil row marks some ID outside
// blocked ∪ {si}: whether each separator those rows belong to, excluded
// by a branch that also excludes si, is still crossed by a separator the
// branch's triangulations may contain.
func witnessed(blocked intern.Bitset, si int, rows ...intern.Bitset) bool {
	for _, row := range rows {
		if row != nil && !escapes(row, blocked, si) {
			return false
		}
	}
	return true
}

// escapes reports whether row marks some ID outside blocked ∪ {si}.
func escapes(row, blocked intern.Bitset, si int) bool {
	for w, bits := range row {
		free := bits &^ blocked[w]
		if w == si/64 {
			free &^= 1 << uint(si%64)
		}
		if free != 0 {
			return true
		}
	}
	return false
}

// effectiveWorkers normalizes a requested branch-solver worker count —
// the one rule every entry point applies: positive counts are taken
// as-is (1 = sequential), zero and negative default to GOMAXPROCS.
// Callers passing "unset" get the parallel speed-up instead of silently
// running serially.
func effectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// TopK returns up to k minimal triangulations by increasing cost,
// solving Lawler–Murty branches with the given worker count and stopping
// early — possibly short of k results — once ctx is cancelled. A worker
// count of 1 means sequential; zero or negative means GOMAXPROCS. The
// emitted prefix is identical for every worker count.
func (s *Solver) TopK(ctx context.Context, k, workers int) []*Result {
	e := s.EnumerateParallelContext(ctx, workers)
	var out []*Result
	for len(out) < k {
		r, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}
