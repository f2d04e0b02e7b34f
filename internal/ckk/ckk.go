// Package ckk reimplements the paper's baseline: the Carmeli–Kenig–
// Kimelfeld (PODS 2017) enumeration of all minimal triangulations in
// incremental polynomial time, with no guarantee on the order.
//
// The algorithm enumerates the maximal independent sets of the
// Parra–Scheffler separator graph (vertices: minimal separators, edges:
// crossing pairs) without materializing it. The extension oracle saturates
// a pairwise-parallel family of minimal separators and hands the result to
// LB-Triang, the black-box minimal triangulator of the paper's
// experiments (DESIGN.md "Backend selection" says why it is fixed). The
// separator universe is produced lazily by minsep.Stream, the
// Berry–Bordat–Cogis generator, interleaved with the independent-set
// moves, so there is no expensive upfront initialization — the practical
// difference from RankedTriang that the paper's Table 2 measures, and the
// reason the service's MIS backend can answer on graphs whose
// |MinSep|-exponential PMC-table init blows the ranked DP's budget.
//
// Separators are interned into dense integer IDs (internal/intern) as they
// are discovered: result deduplication keys on the sorted ID set of the
// triangulation's minimal separators (Parra–Scheffler — the family
// determines H), and repeated move families are skipped before the
// triangulator ever runs, so the per-move cost carries no O(n²) edge-set
// key hashing. One maximum cardinality search gives each triangulation's
// separators and maximal cliques, and only a new triangulation gets a
// clique tree.
package ckk

import (
	"context"
	"encoding/binary"
	"sort"

	"repro/internal/chordal"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/minsep"
	"repro/internal/td"
	"repro/internal/triang"
	"repro/internal/vset"
)

// Result is one enumerated minimal triangulation: H, its minimal
// separators and a clique tree of H.
type Result struct {
	H    *graph.Graph
	Seps []vset.Set
	Tree *td.Decomposition

	ids []int // enumerator-interned IDs aligned with Seps
}

// Enumerator streams all minimal triangulations of a graph, in no
// particular order. Create one with New, then call Next/NextContext until
// exhaustion.
type Enumerator struct {
	g *graph.Graph

	// tab interns every separator the enumeration touches — stream draws
	// and the minimal separators of produced triangulations — so moves and
	// dedup work on dense IDs instead of hashed set keys.
	tab    *intern.Table
	seen   map[string]bool // produced triangulations, keyed by sorted sep-ID set
	tried  map[string]bool // attempted move families, keyed the same way
	keyBuf []byte          // scratch for ID-key construction

	out []*Result // pending results, FIFO

	stream *minsep.Stream
	seps   []vset.Set // separators drawn from the stream so far
	sepIDs []int      // tab IDs aligned with seps

	results []*Result
	cursor  []int // per result: moves with seps[0:cursor] are done
	next    int   // round-robin pointer
}

// New starts the CKK enumeration of the minimal triangulations of g.
func New(g *graph.Graph) *Enumerator {
	e := &Enumerator{
		g:      g,
		tab:    intern.New(16),
		seen:   map[string]bool{},
		tried:  map[string]bool{},
		stream: minsep.NewStream(g),
	}
	e.produce(nil)
	return e
}

// idKey appends the canonical byte encoding of a sorted ID slice to buf
// and returns the extended buffer. Dense IDs are tiny, so the key is a few
// varint bytes per member — far smaller than hashing the sets themselves.
func idKey(buf []byte, sorted []int) []byte {
	for _, id := range sorted {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// produce extends the pairwise-parallel family p to a minimal
// triangulation and registers it if new. By Parra–Scheffler the minimal
// separators of the result form a maximal pairwise-parallel family of
// MinSep(G) that determines the triangulation uniquely, so the sorted set
// of their interned IDs is the dedup key.
func (e *Enumerator) produce(p []vset.Set) {
	h := triang.Minimal(minsep.Saturate(e.g, p))
	st, err := chordal.Analyze(h)
	if err != nil {
		panic("ckk: LB-Triang returned a non-chordal graph: " + err.Error())
	}
	ids := make([]int, len(st.Seps))
	for i, s := range st.Seps {
		ids[i], _ = e.tab.Intern(s)
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	e.keyBuf = idKey(e.keyBuf[:0], sorted)
	key := string(e.keyBuf)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	r := &Result{H: h, Seps: st.Seps, Tree: st.CliqueTree(), ids: ids}
	e.out = append(e.out, r)
	e.results = append(e.results, r)
	e.cursor = append(e.cursor, 0)
}

// step performs one unit of pending work: either a (result, separator)
// move, or pulling one more separator from the lazy generator. It reports
// whether anything remained to do.
func (e *Enumerator) step(ctx context.Context) bool {
	// Round-robin over the results with pending moves.
	for scanned := 0; scanned < len(e.results); scanned++ {
		i := (e.next + scanned) % len(e.results)
		if e.cursor[i] >= len(e.seps) {
			continue
		}
		e.next = i
		e.applyMove(i)
		return true
	}
	// All moves done; grow the separator universe.
	if s, ok := e.stream.Next(ctx); ok {
		id, _ := e.tab.Intern(s)
		e.seps = append(e.seps, s)
		e.sepIDs = append(e.sepIDs, id)
		return true
	}
	return false
}

// applyMove consumes result i's next pending separator move.
func (e *Enumerator) applyMove(i int) {
	s := e.seps[e.cursor[i]]
	sid := e.sepIDs[e.cursor[i]]
	e.cursor[i]++
	e.move(e.results[i], s, sid)
}

// move generates the child of r with respect to separator s: keep the
// members of r parallel to s, force s in, and re-extend (the standard
// maximal-independent-set exchange step). Membership is decided on
// interned IDs, and a family already attempted by an earlier move is
// skipped before the black-box triangulator runs.
func (e *Enumerator) move(r *Result, s vset.Set, sid int) {
	for _, id := range r.ids {
		if id == sid {
			return
		}
	}
	p := []vset.Set{s}
	pids := []int{sid}
	for i, t := range r.Seps {
		if minsep.Parallel(e.g, t, s) {
			p = append(p, t)
			pids = append(pids, r.ids[i])
		}
	}
	sort.Ints(pids)
	e.keyBuf = idKey(e.keyBuf[:0], pids)
	key := string(e.keyBuf)
	if e.tried[key] {
		return
	}
	e.tried[key] = true
	e.produce(p)
}

// Next returns the next minimal triangulation, or ok=false when the
// enumeration is complete. Results appear in no particular order.
func (e *Enumerator) Next() (*Result, bool) {
	return e.NextContext(context.Background())
}

// NextContext is Next bound to a context: once ctx is cancelled the MIS
// move loop and the separator stream stop, and the call reports
// exhaustion — an abandoned enumeration (e.g. a disconnected service
// client) stops burning CPU. Cancellation truncates the enumeration;
// results already produced but not yet emitted are discarded.
func (e *Enumerator) NextContext(ctx context.Context) (*Result, bool) {
	for len(e.out) == 0 {
		if ctx.Err() != nil {
			return nil, false
		}
		if !e.step(ctx) {
			return nil, false
		}
	}
	if ctx.Err() != nil {
		return nil, false
	}
	r := e.out[0]
	e.out = e.out[1:]
	return r, true
}

// All drains the enumeration (testing convenience; real clients stream).
func (e *Enumerator) All() []*Result {
	return e.AllContext(context.Background())
}

// AllContext drains the enumeration until exhaustion or ctx cancellation,
// returning the (possibly truncated) prefix collected so far.
func (e *Enumerator) AllContext(ctx context.Context) []*Result {
	var out []*Result
	for {
		r, ok := e.NextContext(ctx)
		if !ok {
			return out
		}
		out = append(out, r)
	}
}
