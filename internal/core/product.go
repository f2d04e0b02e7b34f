package core

import (
	"container/heap"
	"context"
	"sort"

	"repro/internal/cost"
	"repro/internal/td"
	"repro/internal/vset"
)

// This file implements the decomposed solver's enumeration: per-atom
// ranked streams combined into a globally cost-ordered stream by a
// product-space frontier search (see DESIGN.md, "Atom decomposition").
//
// Correctness rests on two facts. First, Leimer's factorization: H is a
// minimal triangulation of G iff H = H_1 ∪ … ∪ H_k for minimal
// triangulations H_i of the atoms, and the map is a bijection, so the
// product of the atom streams enumerates every minimal triangulation of G
// exactly once. Second, for a mergeable cost the combined cost is the
// max/sum fold of the per-atom costs, which is monotone in each
// coordinate of the product: advancing one atom to its next (costlier)
// triangulation never cheapens the combination. A min-heap over index
// vectors therefore pops combinations in non-decreasing global cost.

// combineResults glues per-atom results (aligned with s.dec.Atoms) into
// one Result for the whole graph: the union triangulation, a clique tree
// obtained by linking each atom's tree to its parent's through a bag
// containing the shared clique separator, and the canonical separator
// list (atom separators plus the non-empty clique minimal separators,
// which every minimal triangulation of G contains).
func (s *Solver) combineResults(parts []*Result) *Result {
	tree := td.New()
	base := make([]int, len(parts))
	for i, p := range parts {
		base[i] = tree.NumNodes()
		for _, bag := range p.Tree.Bags {
			tree.AddNode(bag)
		}
		for a, nbrs := range p.Tree.Adj {
			for _, b := range nbrs {
				if a < b {
					tree.AddEdge(base[i]+a, base[i]+b)
				}
			}
		}
	}
	// nodeWith finds the first bag of part i containing set — guaranteed
	// to exist for a clique of the atom's graph.
	nodeWith := func(i int, set vset.Set) int {
		for n, bag := range parts[i].Tree.Bags {
			if set.SubsetOf(bag) {
				return base[i] + n
			}
		}
		panic("core: clique separator not contained in any bag of its atom")
	}
	firstRoot := -1
	for i, a := range s.dec.Atoms {
		if a.Parent >= 0 {
			tree.AddEdge(nodeWith(i, a.Sep), nodeWith(a.Parent, a.Sep))
		} else if firstRoot < 0 {
			firstRoot = i
		} else {
			// Chain the per-component roots so the tree stays connected;
			// the empty adhesion is exactly what a tree decomposition of
			// a disconnected graph carries between components.
			tree.AddEdge(base[firstRoot], base[i])
		}
	}

	h := s.g.Clone()
	for _, b := range tree.Bags {
		h.SaturateInPlace(b)
	}

	nseps := 0
	for _, p := range parts {
		nseps += len(p.Seps)
	}
	seps := make([]vset.Set, 0, nseps+len(s.dec.CliqueSeps))
	for _, p := range parts {
		seps = append(seps, p.Seps...)
	}
	for _, cs := range s.dec.CliqueSeps {
		if !cs.IsEmpty() {
			seps = append(seps, cs)
		}
	}
	sort.Slice(seps, func(i, j int) bool { return seps[i].Compare(seps[j]) < 0 })

	return &Result{
		H:    h,
		Tree: tree,
		Bags: append([]vset.Set(nil), tree.Bags...),
		Seps: seps,
		Cost: s.evalBags(s.g, tree.Bags),
	}
}

// atomStream is one atom's ranked stream with the prefix pulled so far
// memoized, so a product combination can address any already-explored
// rank and extend the stream on demand.
type atomStream struct {
	e    *Enumerator
	buf  []*Result
	done bool
}

// get returns the atom's rank-i result, pulling the stream forward as
// needed; ok=false once the atom's enumeration is exhausted before i.
func (as *atomStream) get(i int) (*Result, bool) {
	for len(as.buf) <= i && !as.done {
		r, ok := as.e.Next()
		if !ok {
			as.done = true
			break
		}
		as.buf = append(as.buf, r)
	}
	if i < len(as.buf) {
		return as.buf[i], true
	}
	return nil, false
}

// combo is one point of the product space: idx[a] selects the rank of
// atom a's stream. The heap orders by (cost, seq) with seq the push
// sequence — the same deterministic tie rule as the Lawler–Murty
// partition queue.
type combo struct {
	idx  []int
	cost float64
	seq  int
}

type comboQueue []*combo

func (q comboQueue) Len() int { return len(q) }
func (q comboQueue) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return q[i].seq < q[j].seq
}
func (q comboQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *comboQueue) Push(x any)   { *q = append(*q, x.(*combo)) }
func (q *comboQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// productEnumerator merges the per-atom ranked streams into one globally
// cost-ordered stream. Each popped combination generates at most one
// successor per atom under the standard prefix rule — atom a's index may
// only be advanced when every later atom still sits at rank 0 — which
// reaches every index vector exactly once, so no visited set is needed
// and the frontier stays O(emitted · #atoms). Like lmEnumerator it emits
// before it splits: the popped combination is returned at once and kept
// pending, and the next call pushes its successors, pulling each
// advanced atom's next rank, before it pops.
type productEnumerator struct {
	s       *Solver
	ctx     context.Context
	streams []*atomStream
	queue   comboQueue
	pending *combo // emitted by the last Next, successors not yet pushed
	seq     int
}

// newProductEnumerator starts the decomposed enumeration: per-atom
// streams are opened and the all-zeros combination — the global optimum —
// seeded. A cancelled context or an infeasible atom (possible under a
// width bound) yields an exhausted enumerator, mirroring the monolithic
// constructor.
func (s *Solver) newProductEnumerator(ctx context.Context) *productEnumerator {
	pe := &productEnumerator{s: s, ctx: ctx}
	pe.streams = make([]*atomStream, len(s.subs))
	for i, sub := range s.subs {
		pe.streams[i] = &atomStream{e: sub.EnumerateContext(ctx)}
	}
	root := &combo{idx: make([]int, len(s.subs))}
	for i := range pe.streams {
		if _, ok := pe.streams[i].get(0); !ok {
			return pe // some atom has no admissible triangulation
		}
	}
	root.cost = pe.foldCost(root.idx)
	pe.push(root)
	return pe
}

// foldCost combines the selected per-atom costs under the cost's merge
// rule. Used only to order the queue; emitted results re-evaluate the
// cost on the combined bags, exactly like the monolithic buildResult.
func (pe *productEnumerator) foldCost(idx []int) float64 {
	out := pe.streams[0].buf[idx[0]].Cost
	for a := 1; a < len(idx); a++ {
		v := pe.streams[a].buf[idx[a]].Cost
		switch pe.s.mergeKind {
		case cost.MergeMax:
			if v > out {
				out = v
			}
		default:
			out += v
		}
	}
	return out
}

func (pe *productEnumerator) push(c *combo) {
	pe.seq++
	c.seq = pe.seq
	heap.Push(&pe.queue, c)
}

// Next pushes the successors of the combination the previous call
// emitted, then pops the cheapest unexplored combination and emits the
// glued Result.
func (pe *productEnumerator) Next() (*Result, bool) {
	if pe.ctx.Err() != nil {
		return nil, false
	}
	if c := pe.pending; c != nil {
		pe.pending = nil
		pe.expand(c)
	}
	if len(pe.queue) == 0 || pe.ctx.Err() != nil {
		return nil, false
	}
	c := heap.Pop(&pe.queue).(*combo)
	pe.pending = c
	parts := make([]*Result, len(c.idx))
	for a, i := range c.idx {
		parts[a] = pe.streams[a].buf[i]
	}
	return pe.s.combineResults(parts), true
}

// expand pushes c's successors under the prefix rule.
func (pe *productEnumerator) expand(c *combo) {
	for a := len(c.idx) - 1; a >= 0; a-- {
		if r, ok := pe.streams[a].get(c.idx[a] + 1); ok && r != nil {
			child := &combo{idx: append([]int(nil), c.idx...)}
			child.idx[a]++
			child.cost = pe.foldCost(child.idx)
			pe.push(child)
		}
		if c.idx[a] != 0 {
			break // the prefix rule: only trailing zeros may advance past here
		}
	}
}
