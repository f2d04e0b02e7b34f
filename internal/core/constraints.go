package core

import (
	"repro/internal/cost"
	"repro/internal/intern"
	"repro/internal/vset"
)

// sepCov is the precomputed constraint geometry of one separator: its
// missing (non-edge) pairs and, precomputation budget permitting, for
// every PMC and every potential block separator a bitmask over those
// pairs. The DP-time clique test for a constraint on this separator
// (Section 6.1, Lemma 6.2) then degenerates to a handful of word ORs —
// no per-pair set probes in the hot loop. Built lazily (once per
// separator per solver) because only separators that actually appear in
// constraints need it.
//
// The two tables together cost (#pmcs + #seps + 1) × words words per
// separator — quadratic over separator-rich graphs — so they are only
// materialized while the solver's covBudget lasts. Past the budget a
// sepCov stays "lean" (byPMC/bySep nil) and the same masks are derived
// on demand from the pair list: exactly as correct, per-solve instead of
// per-solver memory, a constant factor slower.
type sepCov struct {
	npairs int
	words  int      // ceil(npairs/64); the constraint's slot width
	pairs  [][2]int // the missing pairs themselves (lean-path source)
	all    []uint64 // npairs ones — the "is a clique" target
	byPMC  []uint64 // pmcID*words+w: pairs covered by that PMC's bag
	bySep  []uint64 // (sepID+1)*words+w: pairs inside that block separator
	//                 slot 0 is the empty separator (the top block)
}

// markPairs sets, in dst[base:], the bits of the pairs fully inside
// holder.
func (cov *sepCov) markPairs(dst []uint64, base int, holder vset.Set) {
	for k, p := range cov.pairs {
		if holder.Contains(p[0]) && holder.Contains(p[1]) {
			dst[base+k/64] |= 1 << uint(k%64)
		}
	}
}

// buildSepCovLean fills only the pair list and clique target of cov —
// the parts every mode needs and the whole of lean mode.
func (s *Solver) buildSepCovLean(cov *sepCov, sep vset.Set) {
	vs := sep.Slice()
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !s.g.HasEdge(vs[i], vs[j]) {
				cov.pairs = append(cov.pairs, [2]int{vs[i], vs[j]})
			}
		}
	}
	cov.npairs = len(cov.pairs)
	cov.words = (len(cov.pairs) + 63) / 64
	cov.all = make([]uint64, cov.words)
	for k := range cov.pairs {
		cov.all[k/64] |= 1 << uint(k%64)
	}
}

// buildSepCov fills cov for sep against the solver's PMC and separator
// tables, charging the precomputed tables to the solver's budget.
func (s *Solver) buildSepCov(cov *sepCov, sep vset.Set) {
	s.buildSepCovLean(cov, sep)
	tables := int64(len(s.pmcs)+s.sepTab.Len()+1) * int64(cov.words)
	if s.covBudget.Add(-tables) < 0 {
		// Lean mode: masks derived from pairs on demand. Refund the
		// charge so one oversized separator doesn't disable
		// precomputation for every smaller one after it.
		s.covBudget.Add(tables)
		return
	}
	cov.byPMC = make([]uint64, len(s.pmcs)*cov.words)
	for pi, omega := range s.pmcs {
		cov.markPairs(cov.byPMC, pi*cov.words, omega)
	}
	cov.bySep = make([]uint64, (s.sepTab.Len()+1)*cov.words)
	for si, t := range s.seps {
		cov.markPairs(cov.bySep, (si+1)*cov.words, t)
	}
}

// compiledConstraints is the DP-ready form of κ[I,X]: one word-aligned
// coverage slot per constraint, each backed by its separator's
// precomputed sepCov. dirty marks the blocks whose span contains some
// constraint separator — the only blocks whose DP solution can deviate
// from the unconstrained baseline.
type compiledConstraints struct {
	words int // total coverage words across constraints
	cons  []conInfo
	dirty intern.Bitset // over block indices
}

type conInfo struct {
	cov     *sepCov
	cone    intern.Bitset // blocks whose span contains the separator
	off     int           // word offset of this constraint's coverage slot
	include bool
}

// compileConstraints builds the compiled form from the public constraint
// pair. Constraint separators that are not minimal separators of g
// (possible through the public API) get an on-demand sepCov and a span
// scan for their cone.
func (s *Solver) compileConstraints(c *cost.Constraints) *compiledConstraints {
	if c.IsEmpty() {
		return nil
	}
	cc := &compiledConstraints{dirty: intern.NewBitset(len(s.blocks))}
	for _, sep := range c.Include {
		s.addConstraint(cc, sep, true)
	}
	for _, sep := range c.Exclude {
		s.addConstraint(cc, sep, false)
	}
	return cc
}

// compileSeps builds the compiled form of a Lawler–Murty partition's
// constraint list, whose separators are all interned. The enumerator
// compiles a partition once, when it solves it; the queue holds only the
// list.
func (s *Solver) compileSeps(cons []sepCon) *compiledConstraints {
	cc := &compiledConstraints{
		cons:  make([]conInfo, 0, len(cons)),
		dirty: intern.NewBitset(len(s.blocks)),
	}
	for _, c := range cons {
		cc.add(s.sepCovFor(c.sepID), s.dirtyBySep[c.sepID], c.include)
	}
	return cc
}

// addConstraint appends one separator's constraint to cc.
func (s *Solver) addConstraint(cc *compiledConstraints, sep vset.Set, include bool) {
	if id, ok := s.sepTab.Lookup(sep); ok {
		cc.add(s.sepCovFor(id), s.dirtyBySep[id], include)
		return
	}
	cov, cone := s.extraCovFor(sep)
	cc.add(cov, cone, include)
}

// add appends a constraint with geometry cov and dirty cone cone, giving
// it the next coverage slot.
func (cc *compiledConstraints) add(cov *sepCov, cone intern.Bitset, include bool) {
	cc.cons = append(cc.cons, conInfo{cov: cov, cone: cone, off: cc.words, include: include})
	cc.words += cov.words
	cc.dirty.Or(cone)
}

// bagMask returns the full coverage-mask contribution of the PMC Ω with
// index pmcID under cc — the concatenation, per constraint slot, of the
// pairs that PMC's bag covers. Memoized in the call scratch: a PMC is a
// candidate at many blocks of one solve, so later uses are a single
// contiguous OR.
func (cc *compiledConstraints) bagMask(sc *solveScratch, pmcID int, omega vset.Set) []uint64 {
	m := sc.bagArena[pmcID*cc.words : (pmcID+1)*cc.words]
	if !sc.bagDone[pmcID] {
		for w := range m {
			m[w] = 0
		}
		for i := range cc.cons {
			info := &cc.cons[i]
			cov := info.cov
			if cov.byPMC == nil {
				cov.markPairs(m[info.off:], 0, omega) // lean sepCov
				continue
			}
			base := pmcID * cov.words
			for w := 0; w < cov.words; w++ {
				m[info.off+w] |= cov.byPMC[base+w]
			}
		}
		sc.bagDone[pmcID] = true
	}
	return m
}

// activeCon is one constraint applicable at the block being solved, with
// its clique target already reduced by the block separator: need holds
// the pairs a candidate's subtree coverage must supply. Pairs inside the
// block separator are edges of the realization R(S, C) and count as
// covered — which is exactly what makes the local check agree with the
// global semantics, Lemma 6.2.
type activeCon struct {
	need    []uint64
	off     int
	words   int
	include bool
}

// activeAt collects into sc the constraints whose separator lies inside
// the span of block bi (precomputed as the constraint's cone), hoisting
// the cone test and the block-separator reduction out of the
// per-candidate loop.
func (cc *compiledConstraints) activeAt(bi, blockSepID int, blockSep vset.Set, sc *solveScratch) []activeCon {
	act := sc.act[:0]
	arena := sc.needArena[:0] // cap ≥ cc.words: appends never reallocate
	for i := range cc.cons {
		info := &cc.cons[i]
		if !info.cone.Has(bi) {
			continue
		}
		cov := info.cov
		start := len(arena)
		if cov.bySep != nil {
			bs := (blockSepID + 1) * cov.words
			for w := 0; w < cov.words; w++ {
				arena = append(arena, cov.all[w]&^cov.bySep[bs+w])
			}
		} else {
			// Lean sepCov: derive the block-separator reduction from the
			// pair list.
			arena = append(arena, cov.all...)
			need := arena[start:]
			for k, p := range cov.pairs {
				if blockSep.Contains(p[0]) && blockSep.Contains(p[1]) {
					need[k/64] &^= 1 << uint(k%64)
				}
			}
		}
		act = append(act, activeCon{
			need:    arena[start:],
			off:     info.off,
			words:   cov.words,
			include: info.include,
		})
	}
	sc.act = act
	sc.needArena = arena[:0]
	return act
}

// checkActive evaluates the block's active constraints against one
// candidate's coverage mask: inclusion separators must already be cliques
// of the candidate's sub-triangulation (every missing pair covered by a
// bag or inside the block separator), exclusion separators must not. It
// returns false when some constraint is violated, i.e. κ[I,X] = ∞ for
// this sub-decomposition.
func checkActive(act []activeCon, mask []uint64) bool {
	for i := range act {
		a := &act[i]
		clique := true
		for w := 0; w < a.words; w++ {
			if a.need[w]&^mask[a.off+w] != 0 {
				clique = false
				break
			}
		}
		if clique != a.include {
			return false
		}
	}
	return true
}
