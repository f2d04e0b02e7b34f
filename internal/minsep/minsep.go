// Package minsep enumerates the minimal separators of a graph with the
// Berry–Bordat–Cogis algorithm and provides the crossing/parallel relation
// of Parra–Scheffler that underpins the whole triangulation theory.
package minsep

import (
	"context"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/vset"
)

// All returns MinSep(G), the minimal separators of g, in canonical order.
// If g is disconnected the empty separator is included (it is the unique
// minimal (u,v)-separator for u, v in different components).
//
// The algorithm is Berry, Bordat and Cogis (WG 1999): seed with the
// neighborhoods of the components of G \ N[v] for every vertex v, then
// close under the expansion step S ↦ N(C) for components C of
// G \ (S ∪ N(x)), x ∈ S.
func All(g *graph.Graph) []vset.Set {
	out, _ := all(g, nil)
	return out
}

// AllWithDeadline is All with a wall-clock deadline: it returns ok=false
// (and a partial list, unordered) when the deadline passes before the
// closure completes. A zero deadline disables the check. This powers the
// paper's tractability experiments (Figure 5), which classify graphs by
// whether the separators can be generated within a time budget.
func AllWithDeadline(g *graph.Graph, deadline time.Time) ([]vset.Set, bool) {
	if deadline.IsZero() {
		return all(g, nil)
	}
	return all(g, func() bool { return time.Now().After(deadline) })
}

// AllCtx is All with cancellation: it returns ok=false (and a partial
// list, unordered) when ctx is cancelled or its deadline passes before
// the closure completes. This is the entry point long-lived services use
// to abandon initialization work for disconnected clients.
func AllCtx(ctx context.Context, g *graph.Graph) ([]vset.Set, bool) {
	if ctx.Done() == nil {
		return all(g, nil)
	}
	return all(g, func() bool { return ctx.Err() != nil })
}

// all runs the closure, aborting early when the (possibly nil) expired
// predicate reports true. An aborted run skips the sort: callers read
// only the length of a partial list, and sorting hundreds of thousands
// of separators would overrun the deadline that stopped the closure.
func all(g *graph.Graph, expired func() bool) ([]vset.Set, bool) {
	seen := intern.New(g.NumVertices())
	var queue []vset.Set
	// add interns the walk's view N(C), cloning it only when it is new.
	add := func(_, nc vset.Set) bool {
		if !seen.Contains(nc) {
			s := nc.Clone()
			seen.Intern(s)
			queue = append(queue, s)
		}
		return true
	}
	if expired == nil {
		expired = func() bool { return false }
	}
	g.Vertices().ForEach(func(v int) bool {
		within := g.Vertices().Diff(g.Neighbors(v))
		within.RemoveInPlace(v)
		g.ForEachComponent(within, add)
		return true
	})
	for len(queue) > 0 {
		if expired() {
			return collect(g, seen, false), false
		}
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		s.ForEach(func(x int) bool {
			within := g.Vertices().Diff(s)
			within.DiffInPlace(g.Neighbors(x))
			within.RemoveInPlace(x)
			g.ForEachComponent(within, add)
			return true
		})
	}
	return collect(g, seen, true), true
}

// collect lists the interned separators, dropping the empty set of a
// connected graph, in canonical order when sorted is true.
func collect(g *graph.Graph, seen *intern.Table, sorted bool) []vset.Set {
	out := make([]vset.Set, 0, seen.Len())
	for _, s := range seen.Sets() {
		if s.IsEmpty() && g.IsConnected() {
			continue
		}
		out = append(out, s)
	}
	if sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	}
	return out
}

// AtMost returns the minimal separators of g of size at most k, by
// filtering All. This preserves the semantics MinTriangB needs; the
// fixed-parameter pruning the paper alludes to is a complexity-only
// optimization and is intentionally not replicated (see DESIGN.md).
func AtMost(g *graph.Graph, k int) []vset.Set {
	out, _ := AtMostCtx(context.Background(), g, k)
	return out
}

// AtMostCtx is AtMost with cancellation (see AllCtx).
func AtMostCtx(ctx context.Context, g *graph.Graph, k int) ([]vset.Set, bool) {
	seps, ok := AllCtx(ctx, g)
	if !ok {
		return nil, false
	}
	var out []vset.Set
	for _, s := range seps {
		if s.Len() <= k {
			out = append(out, s)
		}
	}
	return out, true
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

// PairwiseParallel reports whether every two members of seps are parallel.
func PairwiseParallel(g *graph.Graph, seps []vset.Set) bool {
	for i := range seps {
		for j := i + 1; j < len(seps); j++ {
			if Crosses(g, seps[i], seps[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalParallel reports whether seps is a maximal set of pairwise
// parallel minimal separators with respect to the universe all.
func IsMaximalParallel(g *graph.Graph, seps, all []vset.Set) bool {
	if !PairwiseParallel(g, seps) {
		return false
	}
	inSet := intern.FromSets(seps)
	for _, t := range all {
		if inSet.Contains(t) {
			continue
		}
		crossesSome := false
		for _, s := range seps {
			if Crosses(g, s, t) {
				crossesSome = true
				break
			}
		}
		if !crossesSome {
			return false
		}
	}
	return true
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
