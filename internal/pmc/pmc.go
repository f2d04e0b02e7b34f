// Package pmc implements potential maximal cliques: the Bouchitté–Todinca
// membership test and their vertex-incremental enumeration of PMC(G)
// (Bouchitté & Todinca, "Listing all potential maximal cliques of a graph",
// TCS 2002). PMCs are exactly the bags of proper tree decompositions, i.e.
// the maximal cliques of minimal triangulations.
package pmc

import (
	"context"
	"errors"
	"math/bits"
	"sort"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/minsep"
	"repro/internal/vset"
)

// IsPMC reports whether Ω is a potential maximal clique of g, using the
// Bouchitté–Todinca characterization: Ω is a PMC iff (a) G \ Ω has no full
// component (no component C with N(C) = Ω), and (b) every pair of
// non-adjacent vertices of Ω is "covered" by the neighborhood of some
// component of G \ Ω (so saturating those neighborhoods completes Ω).
//
// (b) is tested word by word: for each u ∈ Ω, Ω \ N[u] must lie in the
// union of the N(C) that contain u.
func IsPMC(g *graph.Graph, omega vset.Set) bool {
	if omega.IsEmpty() || !omega.SubsetOf(g.Vertices()) {
		return false
	}
	// cover holds one row per member of Ω, in order: the union of the
	// N(C) that contain that member. Small Ω keep it on the stack.
	words := len(omega.Words())
	var stack [64]uint64
	var cover []uint64
	if need := omega.Len() * words; need <= len(stack) {
		cover = stack[:need]
	} else {
		cover = make([]uint64, need)
	}
	full := false
	g.ForEachComponent(g.Vertices().Diff(omega), func(_, nc vset.Set) bool {
		if nc.Equal(omega) {
			full = true
			return false
		}
		nc.ForEach(func(u int) bool { // N(C) ⊆ Ω
			row := cover[rank(omega, u)*words:][:words]
			for w, x := range nc.Words() {
				row[w] |= x
			}
			return true
		})
		return true
	})
	if full {
		return false
	}
	covered := true
	i := 0
	omega.ForEach(func(u int) bool {
		row := cover[i*words:][:words]
		adj := g.Neighbors(u).Words()
		for w, x := range omega.Words() {
			missing := x &^ adj[w] &^ row[w]
			if w == u/64 {
				missing &^= 1 << uint(u%64)
			}
			if missing != 0 {
				covered = false
				return false
			}
		}
		i++
		return true
	})
	return covered
}

// rank returns the number of members of s below v.
func rank(s vset.Set, v int) int {
	ws := s.Words()
	r := bits.OnesCount64(ws[v/64] & (1<<uint(v%64) - 1))
	for _, w := range ws[:v/64] {
		r += bits.OnesCount64(w)
	}
	return r
}

// All enumerates PMC(G) with the vertex-incremental Bouchitté–Todinca
// algorithm (see Enumerate). The result is in canonical order.
//
// The running time is polynomial in |MinSep(G)| (the poly-MS assumption of
// the paper); completeness is property-tested against the brute-force
// oracle.
func All(g *graph.Graph) []vset.Set {
	out, _ := AllCtx(context.Background(), g)
	return out
}

// ErrDeadline reports that a deadline-bounded enumeration ran out of time.
var ErrDeadline = errors.New("pmc: deadline exceeded")

// AllCtx is All with cancellation: it returns ErrDeadline when ctx is
// cancelled or times out before the enumeration completes.
func AllCtx(ctx context.Context, g *graph.Graph) ([]vset.Set, error) {
	seps, ok := minsep.AllCtx(ctx, g)
	if !ok {
		return nil, ErrDeadline
	}
	return Enumerate(ctx, g, seps, -1)
}

// Enumerate lists the PMCs of g of size at most maxSize (all of them when
// maxSize < 0; size k+1 bounds the bags MinTriangB allows for width k),
// in canonical order, given seps = MinSep(g) as minsep.AllCtx returns it.
// It returns ErrDeadline when ctx is cancelled or times out first.
//
// Processing the active vertices a1..an in order, the PMCs of
// G_{i+1} = G[{a1..a_{i+1}}], a = a_{i+1}, are found among
//
//	(1–2) each PMC Ω of G_i or Ω ∪ {a}: exactly one of the two is a PMC
//	    of G_{i+1}, so only Ω is tested;
//	(3) S ∪ {a} for minimal separators S ∌ a of G_{i+1}, tested; and
//	(4) S ∪ (T ∩ C), tested, for minimal separators S ∌ a of G_{i+1}
//	    that are not separators of G_i, minimal separators T of G_i, and
//	    the one full component C of S that avoids a.
//
// DESIGN.md, "Initialization kernel", proves the restrictions.
// Candidates above the size bound are never tested, but the separator
// lists of the prefixes are complete. The last prefix is g itself, whose
// separators the caller passes in.
func Enumerate(ctx context.Context, g *graph.Graph, seps []vset.Set, maxSize int) ([]vset.Set, error) {
	out, _, ok := enumerate(ctx, g, seps, maxSize)
	if !ok {
		return nil, ErrDeadline
	}
	return out, nil
}

// enumerate is Enumerate; it also returns the number of IsPMC calls it
// made, which tests pin, and ok=false when ctx ends first.
func enumerate(ctx context.Context, g *graph.Graph, seps []vset.Set, maxSize int) (out []vset.Set, tests int, ok bool) {
	verts := g.Vertices().Slice()
	n := g.Universe()
	fits := func(omega vset.Set) bool { return maxSize < 0 || omega.Len() <= maxSize }
	current := intern.New(0)
	var prevSeps []vset.Set
	prevSepTab := intern.New(0)
	prefix := vset.New(n)
	for i, a := range verts {
		if ctx.Err() != nil {
			return nil, tests, false
		}
		prefix.AddInPlace(a)
		// Candidate dedup and the seen-separator test run once per
		// candidate; interned IDs keep both a single hash away.
		next := intern.New(current.Len())
		if i == 0 {
			// {a} is the one PMC of a single vertex, which has no
			// separators.
			if one := vset.Of(n, a); fits(one) {
				next.Intern(one)
			}
			current = next
			continue
		}
		gi := g.InducedSubgraph(prefix)
		consider := func(omega vset.Set) {
			if !fits(omega) || next.Contains(omega) {
				return
			}
			tests++
			if IsPMC(gi, omega) {
				next.Intern(omega)
			}
		}
		sepsI := seps
		if i < len(verts)-1 {
			var sepsOK bool
			if sepsI, sepsOK = minsep.AllCtx(ctx, gi); !sepsOK {
				return nil, tests, false
			}
		}
		for _, omega := range current.Sets() {
			tests++
			if IsPMC(gi, omega) {
				next.Intern(omega)
			} else if up := omega.Add(a); fits(up) {
				next.Intern(up)
			}
		}
		for _, s := range sepsI {
			if s.Contains(a) {
				continue
			}
			consider(s.Add(a))
			if prevSepTab.Contains(s) {
				continue
			}
			// Case (4): S is new, so exactly one of its full components
			// avoids a.
			gi.ForEachComponent(gi.Vertices().Diff(s), func(c, nc vset.Set) bool {
				if c.Contains(a) || !nc.Equal(s) {
					return true
				}
				for _, t := range prevSeps {
					if t.Intersects(c) {
						consider(s.Union(t.Intersect(c)))
					}
				}
				return false
			})
		}
		current = next
		prevSeps = sepsI
		prevSepTab = intern.FromSets(sepsI)
	}
	out = append([]vset.Set(nil), current.Sets()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, tests, true
}

// Block is a block (S, C) of a graph: a minimal separator S together with
// an S-component C. The block is identified with the vertex set S ∪ C.
type Block struct {
	S vset.Set
	C vset.Set
}

// Vertices returns S ∪ C.
func (b Block) Vertices() vset.Set { return b.S.Union(b.C) }

// Key returns a canonical map key for the block.
func (b Block) Key() string { return b.S.Key() + "|" + b.C.Key() }

// FullBlocks returns every full block (S, C) of g over the given minimal
// separators, sorted by increasing |S ∪ C| — the processing order of the
// MinTriang dynamic program (Figure 3, line 3).
func FullBlocks(g *graph.Graph, seps []vset.Set) []Block {
	type keyed struct {
		size int
		key  string
		b    Block
	}
	var all []keyed
	for _, s := range seps {
		g.ForEachComponent(g.Vertices().Diff(s), func(c, nc vset.Set) bool {
			if nc.Equal(s) {
				b := Block{S: s, C: c.Clone()}
				all = append(all, keyed{s.Len() + b.C.Len(), b.Key(), b})
			}
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].size != all[j].size {
			return all[i].size < all[j].size
		}
		return all[i].key < all[j].key
	})
	out := make([]Block, len(all))
	for i := range all {
		out[i] = all[i].b
	}
	return out
}
