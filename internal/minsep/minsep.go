// Package minsep enumerates the minimal separators of a graph with the
// Berry–Bordat–Cogis algorithm and provides the crossing/parallel relation
// of Parra–Scheffler that underpins the whole triangulation theory.
package minsep

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/vset"
)

// All returns MinSep(G), the minimal separators of g, in canonical order.
// If g is disconnected the empty separator is included (it is the unique
// minimal (u,v)-separator for u, v in different components).
//
// The algorithm is Berry, Bordat and Cogis (WG 1999), run to completion
// by draining a Stream.
func All(g *graph.Graph) []vset.Set {
	out, _ := AllCtx(context.Background(), g)
	return out
}

// AllCtx is All with cancellation: it returns ok=false (and a partial
// list, unordered) when ctx is cancelled or its deadline passes before
// the closure completes. This is the entry point long-lived services use
// to abandon initialization work for disconnected clients. An aborted
// run skips the sort: callers read only the length of a partial list,
// and sorting hundreds of thousands of separators would overrun the
// deadline that stopped the closure.
func AllCtx(ctx context.Context, g *graph.Graph) ([]vset.Set, bool) {
	st := NewStream(g)
	var out []vset.Set
	for {
		s, ok := st.Next(ctx)
		if !ok {
			break
		}
		out = append(out, s)
	}
	if st.disconnected {
		out = append(out, vset.New(g.Universe()))
	}
	// Next stops early only with separators left to expand.
	if st.expanded < st.tab.Len() {
		return out, false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, true
}

// Stream produces the minimal separators of a graph lazily, in
// Berry–Bordat–Cogis order: the separators N(C) for the components C of
// G \ N[v], v ∈ V, first, then the closure under the expansion step
// S ↦ N(C) for the components C of G \ (S ∪ N[x]), x ∈ S. A separator is
// expanded only once every earlier one has been handed out, so a caller
// that stops drawing (the auto backend probe, the MIS walk) pays only for
// what it drew. The intern table doubles as the dedup set and the ordered
// universe: produced and expanded are prefix counters over its IDs.
//
// The stream never yields the empty separator of a disconnected graph; it
// admits no fill, so no enumeration move needs it. All adds it back.
type Stream struct {
	g            *graph.Graph
	tab          *intern.Table
	produced     int  // prefix of tab already handed out
	expanded     int  // prefix of tab already expanded
	disconnected bool // a walk met a component with no neighbours
}

// NewStream starts the lazy separator generator for g. The
// neighbourhood-seeded separators are found here; the expansions run on
// demand in Next.
func NewStream(g *graph.Graph) *Stream {
	st := &Stream{g: g, tab: intern.New(g.NumVertices())}
	g.Vertices().ForEach(func(v int) bool {
		within := g.Vertices().Diff(g.Neighbors(v))
		within.RemoveInPlace(v)
		g.ForEachComponent(within, st.add)
		return true
	})
	return st
}

// add interns the component walk's view N(C), cloning it only when it is
// new. An empty N(C) means C is a whole component of g, and some vertex
// lies outside it, so g is disconnected.
func (st *Stream) add(_, nc vset.Set) bool {
	if nc.IsEmpty() {
		st.disconnected = true
	} else if !st.tab.Contains(nc) {
		st.tab.Intern(nc.Clone())
	}
	return true
}

// Next returns one more minimal separator, expanding known separators on
// demand, or ok=false when the closure is exhausted or ctx is cancelled
// (distinguish via ctx.Err()). The returned set belongs to the stream;
// callers must not mutate it.
func (st *Stream) Next(ctx context.Context) (vset.Set, bool) {
	for st.produced >= st.tab.Len() && st.expanded < st.tab.Len() {
		if ctx.Err() != nil {
			return vset.Set{}, false
		}
		s := st.tab.Set(st.expanded)
		st.expanded++
		s.ForEach(func(x int) bool {
			within := st.g.Vertices().Diff(s)
			within.DiffInPlace(st.g.Neighbors(x))
			within.RemoveInPlace(x)
			st.g.ForEachComponent(within, st.add)
			return true
		})
	}
	if st.produced < st.tab.Len() {
		s := st.tab.Set(st.produced)
		st.produced++
		return s, true
	}
	return vset.Set{}, false
}

// Crosses reports whether s crosses t in g: some two vertices of t are
// separated by s, i.e. t meets at least two components of G \ s.
// The relation is symmetric (Parra–Scheffler). Separators are parallel
// when they do not cross.
func Crosses(g *graph.Graph, s, t vset.Set) bool {
	rest := t.Diff(s)
	if rest.IsEmpty() {
		return false
	}
	touched := 0
	g.ForEachComponent(g.Vertices().Diff(s), func(c, _ vset.Set) bool {
		if c.Intersects(rest) {
			touched++
		}
		return touched < 2
	})
	return touched >= 2
}

// Parallel reports whether s and t are parallel (non-crossing) in g.
func Parallel(g *graph.Graph, s, t vset.Set) bool {
	return !Crosses(g, s, t)
}

// Saturate returns g with every separator in seps saturated. When seps is
// a maximal set of pairwise-parallel minimal separators, the result is a
// minimal triangulation of g (Theorem 2.5, Parra–Scheffler).
func Saturate(g *graph.Graph, seps []vset.Set) *graph.Graph {
	h := g.Clone()
	for _, s := range seps {
		h.SaturateInPlace(s)
	}
	return h
}
