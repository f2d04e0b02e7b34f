package core

import (
	"container/heap"
	"context"
	"runtime"
	"slices"
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
// order. They solve a Lawler–Murty branch only when it reaches the top
// of their queue, so the polynomial delay of Theorem 4.4 (under poly-MS,
// in the initialization size — for a decomposed solver, that of the
// atoms) holds amortized: the first k results cost at most k − 1 splits,
// but the call that leaves a tied cost level solves every branch still
// waiting at that level (DESIGN.md, "Solve on pop"). The branches at the
// top are solved up to GOMAXPROCS at a time, so a call may solve a few
// that no later call would have reached; the emitted stream is the same
// at every GOMAXPROCS. Other backends emit per their Ranked contract.
func (e *Enumerator) Next() (*Result, bool) { return e.m.Next() }

// lmEnumerator is the monolithic machine — the RankedTriang algorithm of
// Figure 4.
//
// Each partition of the unexplored space is an inclusion/exclusion
// constraint pair [I, X] held in a priority queue. Next emits before it
// splits: it pops a partition, returns its member at once and keeps the
// partition pending; the next call first splits the pending remainder
// Lawler–Murty style over the member's minimal separators, then pops
// (DESIGN.md, "Emit before split"). The split queues its branches
// unsolved, keyed by the parent's cost, a lower bound on their own; a
// branch is compiled and solved only when it reaches the top of the
// queue, and then re-queued under its own cost (DESIGN.md, "Solve on
// pop"). Every pop emits what it would if the split solved its branches
// at once, so the stream is the same, but a read of k results solves
// only the branches that reach the top before its k-th emit.
type lmEnumerator struct {
	s       *Solver
	ctx     context.Context // cancellation for the branch-solving hot loop
	queue   partitionQueue
	pending *partition // emitted by the last Next, not yet split
	seq     int
	workers int // branch solves per batch: GOMAXPROCS when built
}

// partition is one part [I, X] of the unexplored space, as the list of
// constraints the splits that made it added. Until it is solved, res is
// nil and cost is its parent's cost: the partition lies inside its
// parent's, whose member is the cheapest there, so its own cost is no
// lower. Solving sets res to the partition's cheapest member and cost to
// res.Cost. seq is assigned once, by the split in branch order, and
// breaks cost ties in both states.
type partition struct {
	res  *Result
	cost float64
	cons []sepCon // nil for the unconstrained root partition
	seq  int
}

// sepCon is one constraint of a partition: the interned separator sepID
// is forced to be a clique (include) or not to be one.
type sepCon struct {
	sepID   int
	include bool
}

// partitionQueue is a min-heap on (cost, sequence number).
type partitionQueue []*partition

func (q partitionQueue) Len() int { return len(q) }
func (q partitionQueue) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
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
// precomputed structures. The first result is a minimum-cost minimal
// triangulation. Each Next solves the Lawler–Murty branches that reach
// the top of the queue up to GOMAXPROCS at a time, one goroutine each —
// the independent solves of one step the paper notes can run
// concurrently (Section 7.1, footnote 3); on a decomposed solver, inside
// each atom's machine. The emitted sequence is the same at every GOMAXPROCS, because
// a solved branch re-enters the queue under the sequence number its
// split gave it. The solver's static structures are read-only during
// enumeration, so the cost function must merely be safe for concurrent
// Eval calls (all built-ins are).
//
// Once ctx is cancelled, Next stops solving branches and reports
// exhaustion, so an abandoned enumeration (e.g. a disconnected service
// session) stops burning CPU. Cancellation truncates the enumeration —
// results already queued are discarded, not drained. A background
// context makes every check a no-op.
func (s *Solver) EnumerateContext(ctx context.Context) *Enumerator {
	if s.dec != nil {
		return &Enumerator{m: s.newProductEnumerator(ctx)}
	}
	lm := &lmEnumerator{s: s, ctx: ctx, workers: runtime.GOMAXPROCS(0)}
	if ctx.Err() == nil {
		if r, err := s.MinTriang(nil); err == nil {
			lm.push(&partition{res: r, cost: r.Cost})
		}
	}
	return &Enumerator{m: lm}
}

func (e *lmEnumerator) push(p *partition) {
	e.seq++
	p.seq = e.seq
	heap.Push(&e.queue, p)
}

// Next splits the partition the previous call emitted, solves the
// partitions that reach the top of the queue until a solved one is
// there, then pops it and emits its member. Cancellation can drop
// partitions unsolved, so Next checks ctx again before it pops.
func (e *lmEnumerator) Next() (*Result, bool) {
	if e.ctx.Err() != nil {
		return nil, false
	}
	if p := e.pending; p != nil {
		e.pending = nil
		e.split(p)
	}
	for len(e.queue) > 0 && e.queue[0].res == nil && e.ctx.Err() == nil {
		e.solveTop()
	}
	if len(e.queue) == 0 || e.ctx.Err() != nil {
		return nil, false
	}
	e.pending = heap.Pop(&e.queue).(*partition)
	return e.pending.res, true
}

// solveTop takes up to workers unsolved partitions off the top of the
// queue, solves them concurrently, drops the empty ones and re-queues
// the rest under their own cost and their split-time sequence numbers.
// Solving only raises a key, so the queue orders the solved partitions
// as it would if every branch had been solved at its split.
func (e *lmEnumerator) solveTop() {
	var batch []*partition
	for len(batch) < e.workers && len(e.queue) > 0 && e.queue[0].res == nil {
		batch = append(batch, heap.Pop(&e.queue).(*partition))
	}
	solve := func(p *partition) {
		if e.ctx.Err() != nil {
			return
		}
		if r, err := e.s.minTriangCompiled(e.s.compileSeps(p.cons)); err == nil {
			p.res = r
		}
	}
	if len(batch) == 1 {
		solve(batch[0])
	} else {
		var wg sync.WaitGroup
		for _, p := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				solve(p)
			}()
		}
		wg.Wait()
	}
	for _, p := range batch {
		if p.res != nil {
			p.cost = p.res.Cost
			heap.Push(&e.queue, p)
		}
	}
}

// split queues the branches of partition p minus its member, unsolved
// and keyed by p's cost: the Lawler–Murty step of Figure 4.
func (e *lmEnumerator) split(p *partition) {
	// Let S1..Sk be the minimal separators of the popped triangulation
	// outside I; branch i forces S1..S_{i-1} in and Si out. Note the loop
	// runs to k (not the paper's k-1; see DESIGN.md — the k-th branch
	// "all but Sk" is nonempty in general and dropping it loses
	// completeness). Separators are compared by interned ID — no set keys
	// are hashed on this path.
	included := intern.NewBitset(e.s.sepTab.Len())
	for _, c := range p.cons {
		if c.include {
			included.Set(c.sepID)
		}
	}
	var fresh []int
	for _, id := range p.res.sepIDs {
		if !included.Has(id) {
			fresh = append(fresh, id)
		}
	}
	// Each branch is the partition's constraint list plus the inclusion
	// chain S1..S_{i-1} and the exclusion Si. Branches are queued in
	// branch order, so their sequence numbers keep the order the
	// sequential eager split gave them.
	//
	// A branch the separator-crossing test proves empty is never queued
	// (DESIGN.md, "Empty branches"): branch i holds a triangulation H
	// only if every exclusion x of the branch — the partition's and Si —
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
		blocked, excluded = e.s.blockedBy(p.cons)
	}
	chain := make([]sepCon, len(p.cons), len(p.cons)+len(fresh))
	copy(chain, p.cons)
	for _, id := range fresh {
		var row intern.Bitset
		if filter {
			row = e.s.crossRow(id)
		}
		branch := slices.Concat(chain, []sepCon{{sepID: id}})
		if !filter || witnessed(blocked, id, row) && witnessed(blocked, id, excluded...) {
			e.push(&partition{cost: p.cost, cons: branch})
		} else {
			e.s.statSkipped.Add(1)
			if e.s.auditSkipped != nil {
				// The only error is ErrNoTriangulation, which leaves r nil.
				r, _ := e.s.minTriangCompiled(e.s.compileSeps(branch))
				e.s.auditSkipped(r)
			}
		}
		chain = append(chain, sepCon{sepID: id, include: true})
		if row != nil {
			blocked.Or(row)
		}
	}
}

// blockedBy returns, over separator IDs, the separators no triangulation
// satisfying cons can contain — its exclusions, and every separator
// crossing one of its inclusions (the separators of a minimal
// triangulation are pairwise parallel) — and the crossing rows of its
// exclusions. A constraint whose crossing row is unavailable contributes
// no row, which keeps the set a sound under-approximation and leaves that
// exclusion untested.
func (s *Solver) blockedBy(cons []sepCon) (blocked intern.Bitset, excluded []intern.Bitset) {
	blocked = intern.NewBitset(s.sepTab.Len())
	for _, c := range cons {
		row := s.crossRow(c.sepID)
		if !c.include {
			blocked.Set(c.sepID)
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

// TopK returns up to k minimal triangulations by increasing cost,
// stopping early — possibly short of k results — once ctx is cancelled.
func (s *Solver) TopK(ctx context.Context, k int) []*Result {
	e := s.EnumerateContext(ctx)
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
