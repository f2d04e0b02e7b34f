// Package core implements the paper's contribution: MinTriang, the
// dynamic program of Figure 3 computing a minimum-cost minimal
// triangulation for any split-monotone bag cost (generalizing
// Bouchitté–Todinca), its bounded-width variant MinTriangB (Section 5.3),
// and RankedTriang, the Lawler–Murty ranked enumeration of Figure 4.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atoms"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/minsep"
	"repro/internal/pmc"
	"repro/internal/td"
	"repro/internal/vset"
)

// Result is one minimal triangulation produced by the solver: the chordal
// graph H, a clique tree of it, its bags (= maximal cliques of H), its
// minimal separators, and its cost.
type Result struct {
	H    *graph.Graph
	Tree *td.Decomposition
	Bags []vset.Set
	Seps []vset.Set
	Cost float64

	// OrbitSize is the number of label-equivalent triangulations this
	// result stands for under Aut(G) — set (≥ 1) only by orbit-reduced
	// enumeration (see NewOrbitBackend), 0 on unreduced streams. Summing
	// it over an orbit-reduced stream reconstructs the unreduced stream
	// length.
	OrbitSize int64

	// sepIDs are the solver-interned IDs of Seps (aligned), letting the
	// enumerator branch on separator identity without hashing set keys.
	sepIDs []int
}

// candidate is one PMC usable at a block, with the blocks of its
// components inside the realization precomputed (they are full blocks of
// the input graph, Theorem 5.4, so they index into Solver.blocks). For a
// Combinable cost it also carries its bag's own terms, BagMax(Ω) and
// BagSum(Ω, S): they depend only on G, Ω and the block's S, so init
// computes them once for every constrained solve to reuse.
type candidate struct {
	omega    vset.Set
	pmcID    int // index of omega in Solver.pmcs
	children []int
	max, sum float64
}

// blockData is the static, constraint-independent description of a block:
// the DP re-solves costs per constraint set over this fixed structure.
type blockData struct {
	block pmc.Block
	span  vset.Set
	cands []candidate
}

// Solver carries the initialization state of the algorithms: the minimal
// separators, the potential maximal cliques, and the full-block DAG. The
// paper computes these once and shares them across all MinTriang
// invocations of the enumeration (Section 7.1); Solver does the same.
//
// On top of the static structures the solver keeps the unconstrained
// baseline DP solved once at init. A constrained MinTriang call then
// re-solves only the "dirty cone" of the block DAG — the upward-closed
// set of blocks whose span contains some constraint separator — and
// reuses the baseline solution everywhere else (see DESIGN.md,
// "Incremental constraint-aware DP").
type Solver struct {
	g      *graph.Graph
	c      cost.Cost
	comb   cost.Combinable // non-nil fast path
	bound  int             // width bound, or -1
	seps   []vset.Set
	pmcs   []vset.Set
	blocks []blockData // sorted by |span|; the last entry is the top level

	// Interned-ID structures, built once at init.
	sepTab     *intern.Table   // dense separator IDs, aligned with seps
	blockSepID []int           // sep ID of each block's S; -1 when S = ∅
	dirtyBySep []intern.Bitset // per sep ID: blocks whose span contains it
	base       []blockSol      // unconstrained baseline DP

	// Lazily built constraint geometry (see sepCov): one entry per
	// separator ID, plus an escape hatch for non-minimal-separator
	// constraint sets arriving through the public API. covBudget caps, in
	// words, the precomputed per-separator tables; once spent, further
	// sepCovs are built lean (masks derived from pair lists on demand),
	// bounding the solver's memory on separator-rich graphs.
	sepCovs   []sepCovEntry
	covBudget atomic.Int64
	extraMu   sync.Mutex
	extras    map[string]*extraCov

	// Lazily built separator-crossing rows of the empty-branch filter
	// (see crossRow), one entry per separator ID, charged to covBudget.
	crossRows []crossEntry

	fullResolve bool      // solve every block from scratch (test oracle)
	scratch     sync.Pool // *solveScratch, reused across constrained solves

	// Test hooks of the empty-branch filter (enumerate.go): filterOff
	// solves every Lawler–Murty branch; auditSkipped, when set, solves
	// each branch the filter skips and receives what it found (nil when
	// the branch is empty, as the filter proved).
	filterOff    bool
	auditSkipped func(found *Result)

	// Decomposed mode (see DESIGN.md, "Atom decomposition"). When the
	// graph splits into more than one clique-separator atom and the cost
	// declares an atom-wise merge rule, the solver owns one sub-solver per
	// atom, built in parallel by New, and answers enumeration queries
	// through the ranked product-stream merge of product.go. Of the
	// monolithic structures above only seps and pmcs are filled, with the
	// aggregates over the atoms.
	dec       *atoms.Decomposition
	mergeKind cost.MergeKind
	subs      []*Solver // aligned with dec.Atoms

	statSolves  atomic.Uint64 // constrained solves served incrementally
	statDirty   atomic.Uint64 // blocks re-solved across those calls
	statReused  atomic.Uint64 // blocks reused from the baseline
	statEmpty   atomic.Uint64 // those solves that found no triangulation
	statSkipped atomic.Uint64 // branches proven empty and never solved

	// InitDuration records the time spent computing separators, PMCs and
	// the block structure — the "init" column of the paper's Table 2 —
	// including every per-atom sub-solver build of a decomposed solver.
	// Written once during construction and immutable afterwards.
	InitDuration time.Duration
}

// ErrNoTriangulation is reported when no minimal triangulation satisfies
// the width bound and constraints.
var ErrNoTriangulation = errors.New("core: no admissible minimal triangulation")

// Options configures solver construction beyond the cost function. The
// zero value is the unbounded solver.
type Options struct {
	// WidthBound restricts the solver to triangulations of width at most
	// *WidthBound — MinTriangB⟨b, κ⟩: only minimal separators of size ≤ b
	// and potential maximal cliques of size ≤ b+1 participate, so every
	// produced triangulation has width ≤ b (Theorem 5.6). nil means
	// unbounded; a negative bound is an error.
	WidthBound *int

	// noDecompose forces the monolithic whole-graph solver even when the
	// graph factors into clique-separator atoms. Only the per-atom
	// sub-solver build and the oracle tests pinning the decomposed
	// enumeration to the monolithic one set it.
	noDecompose bool
}

// New initializes the solver for g under cost c: it computes MinSep(G),
// PMC(G) and the full-block structure (lines 1–2 of Figure 3). The cost
// must be a split-monotone bag cost; costs implementing cost.Combinable
// use the fast combining path.
//
// Initialization aborts with ctx.Err() when ctx is cancelled or times out
// during the separator, PMC or block computation, returning a nil solver;
// a background context never fails. When the graph splits on clique
// minimal separators and the cost declares an atom-wise merge rule, the
// solver routes through the atom decomposition and builds one sub-solver
// per atom, in parallel. The returned solver is finished: no query does
// initialization work.
func New(ctx context.Context, g *graph.Graph, c cost.Cost, opts Options) (*Solver, error) {
	bound := -1
	if opts.WidthBound != nil {
		if *opts.WidthBound < 0 {
			return nil, fmt.Errorf("core: negative width bound %d", *opts.WidthBound)
		}
		bound = *opts.WidthBound
	}
	start := time.Now()
	s := &Solver{g: g, c: c, bound: bound}
	if comb, ok := c.(cost.Combinable); ok {
		s.comb = comb
	}
	// Atom decomposition: when the graph splits on clique minimal
	// separators and the cost declares an atom-wise merge rule, skip the
	// (exponential) whole-graph structures entirely; everything else in
	// this function is the monolithic path, which sub-solvers also take
	// (their atoms have no clique separators, so re-decomposing them
	// would only waste an MCS-M pass).
	if !opts.noDecompose && g.NumVertices() > 0 {
		if m, ok := c.(cost.Mergeable); ok && m.MergeKind() != cost.NoMerge {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if dec := atoms.Decompose(g); len(dec.Atoms) > 1 {
				s.dec = dec
				s.mergeKind = m.MergeKind()
				if err := s.buildSubs(ctx); err != nil {
					return nil, err
				}
				s.InitDuration = time.Since(start)
				return s, nil
			}
		}
	}
	// PMC enumeration needs all of MinSep(G), whatever the bound; a
	// bounded solver keeps the separators of size at most b (Theorem 5.6).
	seps, sepsOK := minsep.AllCtx(ctx, g)
	var pmcErr error
	if sepsOK {
		maxSize := -1
		if bound >= 0 {
			maxSize = bound + 1
		}
		s.pmcs, pmcErr = pmc.Enumerate(ctx, g, seps, maxSize)
	}
	if !sepsOK || pmcErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, pmcErr
	}
	s.seps = seps
	if bound >= 0 {
		s.seps = nil
		for _, sep := range seps {
			if sep.Len() <= bound {
				s.seps = append(s.seps, sep)
			}
		}
	}
	s.sepTab = intern.FromSets(s.seps)
	if err := s.buildBlocks(ctx); err != nil {
		return nil, err
	}
	if err := s.buildIncremental(ctx); err != nil {
		return nil, err
	}
	s.InitDuration = time.Since(start)
	return s, nil
}

// buildBlocks constructs the static DP structure: all full blocks sorted
// by cardinality plus a virtual top-level block (S = ∅, C = V), each with
// its admissible PMCs and their sub-blocks. It walks G \ Ω once per PMC
// Ω and reads off every block Ω is a candidate of (Bouchitté–Todinca;
// DESIGN.md, "Initialization kernel"):
//
//   - the top block, with every component D of G \ Ω as a child;
//   - for each component D, the full block (N(D), C) whose C holds
//     Ω \ N(D) (N(D) ⊊ Ω because a PMC has no full component), with the
//     components D′ ⊆ C — those with N(D′) ⊄ N(D) — as children.
//
// Each child D′ is the full block (N(D′), D′). Visiting PMCs in index
// order keeps every block's candidates in PMC order, and the walk keeps
// each candidate's children in smallest-vertex order: the order the DP's
// first-minimum tie-break depends on. It checks ctx between PMCs and
// aborts with ctx.Err() on cancellation.
func (s *Solver) buildBlocks(ctx context.Context) error {
	g := s.g
	full := pmc.FullBlocks(g, s.seps)
	s.blocks = make([]blockData, 0, len(full)+1)
	bySep := make([][]int, s.sepTab.Len()) // full blocks per separator ID
	for i, b := range full {
		s.blocks = append(s.blocks, blockData{block: b, span: b.Vertices()})
		if id, ok := s.sepTab.Lookup(b.S); ok {
			bySep[id] = append(bySep[id], i)
		}
	}
	top := len(full)
	s.blocks = append(s.blocks, blockData{
		block: pmc.Block{S: vset.New(g.Universe()), C: g.Vertices().Clone()},
		span:  g.Vertices().Clone(),
	})
	// blockOf returns the full block with separator ID sep whose C holds
	// v, or -1.
	blockOf := func(sep, v int) int {
		for _, bi := range bySep[sep] {
			if s.blocks[bi].block.C.Contains(v) {
				return bi
			}
		}
		return -1
	}
	// component is one component D of G \ Ω: its smallest vertex, the ID
	// of N(D) and the full block (N(D), D), each -1 when absent. A PMC's
	// components have both (N(D) ⊊ Ω is a minimal separator, of size at
	// most b under a width bound b, and D is a full component of it).
	type component struct{ first, sep, block int }
	var comps []component
	// add appends PMC pi to block bi's candidates, with the components
	// keep selects as its children; an absent child block drops it.
	add := func(bi, pi int, keep func(component) bool) {
		bd := &s.blocks[bi]
		cand := candidate{omega: s.pmcs[pi], pmcID: pi}
		for _, d := range comps {
			if !keep(d) {
				continue
			}
			if d.block < 0 {
				return
			}
			cand.children = append(cand.children, d.block)
		}
		if s.comb != nil {
			cand.max = s.comb.BagMax(g, cand.omega)
			cand.sum = s.comb.BagSum(g, cand.omega, bd.block.S)
		}
		bd.cands = append(bd.cands, cand)
	}
	for pi, omega := range s.pmcs {
		if err := ctx.Err(); err != nil {
			return err
		}
		comps = comps[:0]
		g.ForEachComponent(g.Vertices().Diff(omega), func(c, nc vset.Set) bool {
			d := component{first: c.First(), sep: -1, block: -1}
			if id, ok := s.sepTab.Lookup(nc); ok {
				d.sep, d.block = id, blockOf(id, d.first)
			}
			comps = append(comps, d)
			return true
		})
		add(top, pi, func(component) bool { return true })
	parents:
		for i, d := range comps {
			if d.sep < 0 {
				continue
			}
			for _, e := range comps[:i] {
				if e.sep == d.sep {
					continue parents // same N(D), same block
				}
			}
			parent := blockOf(d.sep, firstOutside(omega, s.sepTab.Set(d.sep)))
			if parent < 0 {
				continue
			}
			c := s.blocks[parent].block.C
			add(parent, pi, func(e component) bool { return c.Contains(e.first) })
		}
	}
	return nil
}

// firstOutside returns the smallest vertex of a \ b, or -1.
func firstOutside(a, b vset.Set) int {
	v := -1
	a.ForEach(func(u int) bool {
		if !b.Contains(u) {
			v = u
			return false
		}
		return true
	})
	return v
}

// buildIncremental finishes initialization: it maps each block to its
// interned separator ID, precomputes for every separator
// the dirty cone it induces (the blocks whose span contains it — exactly
// the blocks a constraint on that separator can re-rank), and solves the
// unconstrained baseline DP once. Every later constrained MinTriang call
// re-solves only a union of these cones.
func (s *Solver) buildIncremental(ctx context.Context) error {
	s.blockSepID = make([]int, len(s.blocks))
	for i := range s.blocks {
		s.blockSepID[i] = -1
		if sp := s.blocks[i].block.S; !sp.IsEmpty() {
			if id, ok := s.sepTab.Lookup(sp); ok {
				s.blockSepID[i] = id
			}
		}
	}
	s.dirtyBySep = make([]intern.Bitset, s.sepTab.Len())
	for id := range s.dirtyBySep {
		if err := ctx.Err(); err != nil {
			return err
		}
		mask := intern.NewBitset(len(s.blocks))
		sep := s.sepTab.Set(id)
		for bi := range s.blocks {
			if sep.SubsetOf(s.blocks[bi].span) {
				mask.Set(bi)
			}
		}
		s.dirtyBySep[id] = mask
	}
	// Baseline DP (lines 3–6 of Figure 3, unconstrained). Solved once;
	// constrained calls start from these solutions.
	s.base = make([]blockSol, len(s.blocks))
	sc := &solveScratch{sols: s.base}
	for i := range s.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.base[i] = s.solveBlock(i, nil, sc, nil)
	}
	s.sepCovs = make([]sepCovEntry, s.sepTab.Len())
	s.crossRows = make([]crossEntry, s.sepTab.Len())
	s.covBudget.Store(sepCovBudgetWords)
	s.extras = make(map[string]*extraCov)
	s.scratch.New = func() any {
		return &solveScratch{
			sols:    make([]blockSol, len(s.blocks)),
			cov:     make([][]uint64, len(s.blocks)),
			changed: make([]bool, len(s.blocks)),
		}
	}
	return nil
}

// sepCovBudgetWords bounds the precomputed sepCov tables and crossing
// rows per solver at 64 MiB of mask words; both are quadratic in the
// separator count, so without a cap a separator-rich graph would pin
// hundreds of megabytes on one pool-cached solver. Past the budget,
// sepCovs fall back to the (exact, somewhat slower) lean path and the
// empty-branch filter solves the branches it can no longer test.
const sepCovBudgetWords = 8 << 20

// sepCovEntry guards one separator's lazily built constraint geometry;
// enumeration workers race on the first touch.
type sepCovEntry struct {
	once sync.Once
	cov  sepCov
}

// sepCovFor returns the constraint geometry of an interned separator,
// building it on first use.
func (s *Solver) sepCovFor(id int) *sepCov {
	e := &s.sepCovs[id]
	e.once.Do(func() { s.buildSepCov(&e.cov, s.sepTab.Set(id)) })
	return &e.cov
}

// crossEntry guards one separator's lazily built crossing row; plain and
// orbit enumerations sharing a pooled solver race on the first touch.
type crossEntry struct {
	once sync.Once
	row  intern.Bitset // nil when covBudget was spent
}

// crossRow returns the IDs of the separators that cross the interned
// separator id — those T with T \ S meeting two components of G \ S —
// building the row on first use. It returns nil once covBudget is spent;
// the empty-branch filter then has no proof and solves the branch.
func (s *Solver) crossRow(id int) intern.Bitset {
	e := &s.crossRows[id]
	e.once.Do(func() { e.row = s.buildCrossRow(s.sepTab.Set(id)) })
	return e.row
}

// buildCrossRow labels the components of G \ sep once and marks every
// separator that meets two of them, charging the row to covBudget.
func (s *Solver) buildCrossRow(sep vset.Set) intern.Bitset {
	n := s.sepTab.Len()
	words := int64((n + 63) / 64)
	if s.covBudget.Add(-words) < 0 {
		s.covBudget.Add(words)
		return nil
	}
	comp := make([]int, s.g.Universe()) // component of G \ sep, from 1; 0 on sep
	label := 0
	s.g.ForEachComponent(s.g.Vertices().Diff(sep), func(c, _ vset.Set) bool {
		label++
		c.ForEach(func(v int) bool {
			comp[v] = label
			return true
		})
		return true
	})
	row := intern.NewBitset(n)
	for id, t := range s.sepTab.Sets() {
		first := 0
		t.ForEach(func(v int) bool {
			switch c := comp[v]; {
			case c == 0 || c == first:
			case first == 0:
				first = c
			default:
				row.Set(id)
				return false
			}
			return true
		})
	}
	return row
}

// extraCov is the constraint geometry plus dirty cone of a constraint
// separator that is not a minimal separator of the graph.
type extraCov struct {
	cov  sepCov
	cone intern.Bitset
}

// extraCovFor returns (building on first use) the geometry and cone of a
// non-interned constraint separator. Extras are always built lean —
// there is no bound on how many distinct sets the public API can send a
// long-lived solver, so they must neither pin precomputed tables nor
// drain the shared budget the interned separators rely on.
func (s *Solver) extraCovFor(sep vset.Set) (*sepCov, intern.Bitset) {
	key := sep.Key()
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	if e, ok := s.extras[key]; ok {
		return &e.cov, e.cone
	}
	e := &extraCov{cone: intern.NewBitset(len(s.blocks))}
	s.buildSepCovLean(&e.cov, sep)
	for bi := range s.blocks {
		if sep.SubsetOf(s.blocks[bi].span) {
			e.cone.Set(bi)
		}
	}
	s.extras[key] = e
	return &e.cov, e.cone
}

// Graph returns the input graph.
func (s *Solver) Graph() *graph.Graph { return s.g }

// Cost returns the solver's cost function.
func (s *Solver) Cost() cost.Cost { return s.c }

// Decomposed reports whether the solver routes through the atom
// decomposition (more than one clique-separator atom, mergeable cost, and
// decomposition not disabled).
func (s *Solver) Decomposed() bool { return s.dec != nil }

// Atoms returns the clique-minimal-separator decomposition of the input
// graph, or nil for a monolithic solver.
func (s *Solver) Atoms() *atoms.Decomposition { return s.dec }

// buildSubs builds the per-atom sub-solvers in parallel with up to
// GOMAXPROCS workers and aggregates their separators and PMCs into the
// solver's own (plus the clique minimal separators of the decomposition,
// which every minimal triangulation contains). Called only from New.
func (s *Solver) buildSubs(ctx context.Context) error {
	n := len(s.dec.Atoms)
	subs := make([]*Solver, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	// Atoms have no clique separators, so sub-solvers skip decomposition.
	opts := Options{noDecompose: true}
	if s.bound >= 0 {
		opts.WidthBound = &s.bound
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if errs[i] = ctx.Err(); errs[i] == nil {
					subs[i], errs[i] = New(ctx, s.g.InducedSubgraph(s.dec.Atoms[i].Vertices), s.c, opts)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.subs = subs
	for _, sub := range subs {
		s.seps = append(s.seps, sub.seps...)
		s.pmcs = append(s.pmcs, sub.pmcs...)
	}
	for _, cs := range s.dec.CliqueSeps {
		if s.bound < 0 || cs.Len() <= s.bound {
			s.seps = append(s.seps, cs)
		}
	}
	sort.Slice(s.seps, func(i, j int) bool { return s.seps[i].Compare(s.seps[j]) < 0 })
	sort.Slice(s.pmcs, func(i, j int) bool { return s.pmcs[i].Compare(s.pmcs[j]) < 0 })
	return nil
}

// Prepare returns nil: New builds every structure, sub-solvers included.
// The method remains only because benchrun/trace.go and
// benchrun/workloads.go still call it.
func (s *Solver) Prepare(ctx context.Context) error { return nil }

// MinimalSeparators returns the precomputed MinSep(G) (restricted by the
// width bound for bounded solvers). For a decomposed solver this is the
// disjoint union of the atoms' minimal separators and the clique minimal
// separators of the decomposition, in canonical order — the same set the
// monolithic solver computes directly.
func (s *Solver) MinimalSeparators() []vset.Set { return s.seps }

// PMCs returns the precomputed PMC(G) (restricted by the width bound).
// For a decomposed solver this is the union of the atoms' PMC sets in
// canonical order.
func (s *Solver) PMCs() []vset.Set { return s.pmcs }

// NumFullBlocks returns the number of full blocks in the DP — summed over
// the atoms for a decomposed solver.
func (s *Solver) NumFullBlocks() int {
	if s.dec == nil {
		return len(s.blocks) - 1
	}
	total := 0
	for _, sub := range s.subs {
		total += sub.NumFullBlocks()
	}
	return total
}

// setFullResolve disables (true) or re-enables (false) incremental reuse:
// with full resolve on, every constrained call re-runs the whole DP from
// scratch. It is the test hook the incremental path is property-tested
// against and the ablation for benchmarks. Not safe to flip while
// enumerations are in flight.
func (s *Solver) setFullResolve(on bool) {
	s.fullResolve = on
	for _, sub := range s.subs {
		sub.setFullResolve(on)
	}
}

// ReuseStats is a snapshot of the incremental-DP counters: how many
// constrained solves ran, how many blocks they re-solved with a full
// candidate scan, and how many they served from the unconstrained
// baseline (clean blocks outside every constraint's dirty cone, plus
// dirty-cone blocks kept by the exact baseline-still-wins shortcut).
// EmptySolves counts the constrained solves that found no triangulation,
// and EmptyBranches the Lawler–Murty branches the separator-crossing test
// proved empty, which were never solved.
type ReuseStats struct {
	ConstrainedSolves uint64 `json:"constrained_solves"`
	DirtyBlocks       uint64 `json:"dirty_blocks"`
	ReusedBlocks      uint64 `json:"reused_blocks"`
	EmptySolves       uint64 `json:"empty_solves"`
	EmptyBranches     uint64 `json:"empty_branches"`
}

// ReuseStats returns the cumulative incremental-solve counters — summed
// over the atom sub-solvers for a decomposed solver. It is safe to call
// concurrently with enumeration.
func (s *Solver) ReuseStats() ReuseStats {
	out := ReuseStats{
		ConstrainedSolves: s.statSolves.Load(),
		DirtyBlocks:       s.statDirty.Load(),
		ReusedBlocks:      s.statReused.Load(),
		EmptySolves:       s.statEmpty.Load(),
		EmptyBranches:     s.statSkipped.Load(),
	}
	for _, sub := range s.subs {
		out.Add(sub.ReuseStats())
	}
	return out
}

// Add folds o into st field by field.
func (st *ReuseStats) Add(o ReuseStats) {
	st.ConstrainedSolves += o.ConstrainedSolves
	st.DirtyBlocks += o.DirtyBlocks
	st.ReusedBlocks += o.ReusedBlocks
	st.EmptySolves += o.EmptySolves
	st.EmptyBranches += o.EmptyBranches
}

// blockSol is the per-constraint-set DP value of one block.
type blockSol struct {
	ok       bool
	cand     int // index into blockData.cands
	value    float64
	max, sum float64  // cost.Combinable summary
	coverage []uint64 // constraint-pair coverage bitmask
	bags     []vset.Set
}

// solveScratch is the per-call working state of one constrained solve,
// pooled so the steady-state enumeration allocates no per-block slices.
type solveScratch struct {
	sols      []blockSol  // working solutions; starts as a copy of the baseline
	cov       [][]uint64  // memoized coverage of clean (baseline-reused) blocks
	covBuf    []uint64    // per-candidate coverage working buffer
	act       []activeCon // active constraints of the block being solved
	needArena []uint64    // backing storage for activeCon.need slices
	bagArena  []uint64    // memoized per-PMC coverage contributions
	bagDone   []bool      // which bagArena segments are filled
	changed   []bool      // dirty blocks whose re-solve deviated from baseline
}

// coverage returns the candidate working buffer sized to n words; its
// contents are stale, which suits subtreeCoverage, the one writer, since
// it overwrites every word.
func (sc *solveScratch) coverage(n int) []uint64 {
	if cap(sc.covBuf) < n {
		sc.covBuf = make([]uint64, n)
	}
	return sc.covBuf[:n]
}

// prepare sizes the per-call buffers for a solve over npmcs PMCs with
// words coverage words and invalidates the per-PMC memo.
func (sc *solveScratch) prepare(npmcs, words int) {
	if len(sc.bagDone) < npmcs {
		sc.bagDone = make([]bool, npmcs)
	} else {
		for i := range sc.bagDone {
			sc.bagDone[i] = false
		}
	}
	if need := npmcs * words; cap(sc.bagArena) < need {
		sc.bagArena = make([]uint64, need)
	}
	if cap(sc.needArena) < words {
		sc.needArena = make([]uint64, 0, words)
	}
}

func (s *Solver) getScratch(cc *compiledConstraints) *solveScratch {
	sc := s.scratch.Get().(*solveScratch)
	copy(sc.sols, s.base)
	for i := range sc.cov {
		sc.cov[i] = nil
		sc.changed[i] = false
	}
	sc.prepare(len(s.pmcs), cc.words)
	return sc
}

// MinTriang returns a minimum-cost minimal triangulation of the input
// graph subject to the constraints (nil means unconstrained), or
// ErrNoTriangulation when the constrained space (or bounded-width space)
// is empty. This is MinTriang⟨κ[I,X]⟩(G) of the paper.
func (s *Solver) MinTriang(cons *cost.Constraints) (*Result, error) {
	if s.g.NumVertices() == 0 {
		return &Result{H: s.g.Clone(), Tree: td.New(), Cost: s.evalBags(s.g, nil)}, nil
	}
	if s.dec != nil {
		return s.minTriangAtoms(cons)
	}
	return s.minTriangCompiled(s.compileConstraints(cons))
}

// minTriangAtoms answers MinTriang on a decomposed solver: constraints
// are routed to the single atom that can decide them, each atom solves
// its restricted problem, and the per-atom optima are glued. Correctness
// rests on Leimer's factorization (minimal triangulations of G = unions
// of independent minimal triangulations of the atoms) plus the merge rule
// of the cost, under which the union of per-atom optima is a global
// optimum.
func (s *Solver) minTriangAtoms(cons *cost.Constraints) (*Result, error) {
	perAtom, err := s.splitConstraints(cons)
	if err != nil {
		return nil, err
	}
	parts := make([]*Result, len(s.subs))
	for i, sub := range s.subs {
		r, err := sub.MinTriang(perAtom[i])
		if err != nil {
			return nil, ErrNoTriangulation
		}
		parts[i] = r
	}
	return s.combineResults(parts), nil
}

// splitConstraints routes each constraint separator of [I, X] to the one
// atom that can decide it, exploiting that every clique of a minimal
// triangulation lies inside a single atom (no H-edge crosses a clique
// separator):
//
//   - a separator that is already a clique of G is a clique of every
//     triangulation: an inclusion is vacuous, an exclusion unsatisfiable;
//   - a separator inside an atom becomes a clique of H iff it becomes a
//     clique of that atom's triangulation (atoms overlap only in cliques
//     of G, so the atom is unique), and is routed there;
//   - a separator inside no atom can never become a clique: an inclusion
//     is unsatisfiable, an exclusion vacuous.
//
// The unsatisfiable cases return ErrNoTriangulation.
func (s *Solver) splitConstraints(cons *cost.Constraints) ([]*cost.Constraints, error) {
	out := make([]*cost.Constraints, len(s.dec.Atoms))
	if cons.IsEmpty() {
		return out, nil
	}
	route := func(sep vset.Set, include bool) (bool, error) {
		if s.g.IsClique(sep) {
			if include {
				return false, nil // vacuously satisfied
			}
			return false, ErrNoTriangulation
		}
		for i, a := range s.dec.Atoms {
			if sep.SubsetOf(a.Vertices) {
				if out[i] == nil {
					out[i] = &cost.Constraints{}
				}
				if include {
					out[i].Include = append(out[i].Include, sep)
				} else {
					out[i].Exclude = append(out[i].Exclude, sep)
				}
				return true, nil
			}
		}
		if include {
			return false, ErrNoTriangulation // can never become a clique
		}
		return false, nil // vacuously excluded
	}
	for _, sep := range cons.Include {
		if _, err := route(sep, true); err != nil {
			return nil, err
		}
	}
	for _, sep := range cons.Exclude {
		if _, err := route(sep, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// minTriangCompiled is the internal entry point shared by MinTriang and
// the enumerator's branch solving, which compiles each partition's
// constraint list once, when it solves the partition (compileSeps).
func (s *Solver) minTriangCompiled(cc *compiledConstraints) (*Result, error) {
	top := len(s.blocks) - 1
	if cc == nil {
		// Unconstrained: the baseline DP is the answer.
		if !s.base[top].ok {
			return nil, ErrNoTriangulation
		}
		return s.buildResult(top, s.base), nil
	}
	if s.fullResolve {
		sc := &solveScratch{sols: make([]blockSol, len(s.blocks)), cov: make([][]uint64, len(s.blocks))}
		sc.prepare(len(s.pmcs), cc.words)
		for i := range s.blocks {
			sc.sols[i] = s.solveBlock(i, cc, sc, nil)
		}
		if !sc.sols[top].ok {
			return nil, ErrNoTriangulation
		}
		return s.buildResult(top, sc.sols), nil
	}
	sc := s.getScratch(cc)
	defer s.scratch.Put(sc)
	// Re-solve the dirty cone bottom-up. Blocks are globally sorted by
	// span size, so ascending bit order respects the child-before-parent
	// DP order; the top block's span is V, hence always dirty.
	var scanned uint64
	cc.dirty.ForEach(func(bi int) {
		if s.resolveBlock(bi, cc, sc) {
			scanned++
		}
	})
	s.statSolves.Add(1)
	s.statDirty.Add(scanned)
	s.statReused.Add(uint64(len(s.blocks)) - scanned)
	if !sc.sols[top].ok {
		s.statEmpty.Add(1)
		return nil, ErrNoTriangulation
	}
	return s.buildResult(top, sc.sols), nil
}

// resolveBlock re-solves one dirty block of an incremental constrained
// call, with the exact fast path that makes the dirty cone cheap to walk:
// constraining can only remove candidates and raise children, so every
// candidate's constrained value is at least its baseline value. Hence if
// the baseline-chosen candidate's children are all unchanged and its
// constraint check passes, it still attains the (unchanged) minimum — and
// the first-minimum tie-break of the from-scratch DP picks it again — so
// the baseline solution is kept wholesale and only its coverage mask is
// materialized. Otherwise the block falls back to the full candidate scan
// and records whether its solution deviated (children consult that flag).
// The return value reports whether the full scan ran — blocks served
// from the baseline count as reused in ReuseStats, scanned ones as
// dirty.
func (s *Solver) resolveBlock(bi int, cc *compiledConstraints, sc *solveScratch) bool {
	base := &s.base[bi]
	if !base.ok {
		// Infeasible without constraints stays infeasible with them.
		return false
	}
	bd := &s.blocks[bi]
	cand := &bd.cands[base.cand]
	// The keep-baseline path requires a Combinable cost: it reuses the
	// baseline blockSol verbatim, which for generic costs carries the
	// subtree bag list — stale when an equal-value child re-decomposed.
	// Combinable solutions fold through (max, sum) scalars, which the
	// changed flags track exactly.
	stable := s.comb != nil
	for _, child := range cand.children {
		if !stable {
			break
		}
		if sc.changed[child] {
			stable = false
		}
	}
	var act []activeCon
	if stable {
		act = cc.activeAt(bi, s.blockSepID[bi], bd.block.S, sc)
		buf := s.subtreeCoverage(sc.coverage(cc.words), cand, cc, sc)
		if checkActive(act, buf) {
			sol := *base
			sol.coverage = append([]uint64(nil), buf...)
			sc.sols[bi] = sol
			return false
		}
	}
	sol := s.solveBlock(bi, cc, sc, act)
	sc.sols[bi] = sol
	if sol.ok != base.ok || sol.value != base.value || sol.max != base.max || sol.sum != base.sum {
		sc.changed[bi] = true
	}
	return true
}

// solveBlock evaluates every admissible PMC of block bi over the already
// solved smaller blocks and keeps the cheapest (lines 3–5 of Figure 3;
// line 6 for the virtual top block). The winner's coverage mask is
// rebuilt once after selection, so losing candidates allocate nothing.
// act may carry the block's already-built active-constraint list (from a
// failed keep-baseline attempt); nil means build it here.
func (s *Solver) solveBlock(bi int, cc *compiledConstraints, sc *solveScratch, act []activeCon) blockSol {
	bd := &s.blocks[bi]
	if cc != nil && act == nil {
		act = cc.activeAt(bi, s.blockSepID[bi], bd.block.S, sc)
	}
	best := blockSol{ok: false, value: math.Inf(1)}
	for ci := range bd.cands {
		if sol, ok := s.evalCandidate(bd, &bd.cands[ci], cc, act, sc, &best); ok {
			sol.cand = ci
			best = sol
		}
	}
	if cc != nil && best.ok {
		best.coverage = s.subtreeCoverage(make([]uint64, cc.words), &bd.cands[best.cand], cc, sc)
	}
	return best
}

// coverageOf returns the constraint-pair coverage of a solved child
// block: dirty children carry it on their re-solved solution, clean
// children derive it lazily from the baseline sub-decomposition (memoized
// per call — the block DAG shares subtrees).
func (s *Solver) coverageOf(bi int, cc *compiledConstraints, sc *solveScratch) []uint64 {
	if cov := sc.sols[bi].coverage; cov != nil {
		return cov
	}
	if m := sc.cov[bi]; m != nil {
		return m
	}
	sol := &sc.sols[bi] // clean: identical to the baseline solution
	m := s.subtreeCoverage(make([]uint64, cc.words), &s.blocks[bi].cands[sol.cand], cc, sc)
	sc.cov[bi] = m
	return m
}

// subtreeCoverage overwrites dst (cc.words long) with the constraint
// pairs covered by the bags of cand's subtree — its own bag's plus its
// children's coverage — and returns dst.
func (s *Solver) subtreeCoverage(dst []uint64, cand *candidate, cc *compiledConstraints, sc *solveScratch) []uint64 {
	copy(dst, cc.bagMask(sc, cand.pmcID, cand.omega))
	for _, child := range cand.children {
		for w, bits := range s.coverageOf(child, cc, sc) {
			dst[w] |= bits
		}
	}
	return dst
}

// evalCandidate combines the children of one candidate PMC with its root
// bag and returns the candidate's solution when it displaces best — the
// block's winner so far in index order, whose first minimum the scan
// keeps, so only a strictly smaller value can. It reports ok=false when a
// child is unsolvable, the value is +Inf or cannot displace best, or a
// constraint is violated (κ[I,X] = ∞). For a Combinable cost the value
// folds from the candidate's static bag terms first, so the constraint
// check runs only on candidates that can win; the generic path evaluates
// the subtree's bags, so it checks the constraints first. The check runs
// on the scratch coverage buffer against the block's active constraints;
// the caller rebuilds and retains coverage only for the winning
// candidate.
func (s *Solver) evalCandidate(bd *blockData, cand *candidate, cc *compiledConstraints, act []activeCon, sc *solveScratch, best *blockSol) (blockSol, bool) {
	var sol blockSol
	sols := sc.sols
	for _, child := range cand.children {
		if !sols[child].ok {
			return sol, false
		}
	}
	if s.comb != nil {
		sol.max, sol.sum = cand.max, cand.sum
		for _, child := range cand.children {
			if sols[child].max > sol.max {
				sol.max = sols[child].max
			}
			sol.sum += sols[child].sum
		}
		sol.value = s.comb.Value(s.g, sol.max, sol.sum)
		if !displaces(sol.value, best) || !s.satisfies(cand, cc, act, sc) {
			return sol, false
		}
	} else {
		if !s.satisfies(cand, cc, act, sc) {
			return sol, false
		}
		sol.bags = append(sol.bags, cand.omega)
		for _, child := range cand.children {
			sol.bags = append(sol.bags, sols[child].bags...)
		}
		r := s.g.Realization(bd.block.S, bd.block.C)
		sol.value = s.c.Eval(r, sol.bags)
		if !displaces(sol.value, best) {
			return sol, false
		}
	}
	sol.ok = true
	return sol, true
}

// displaces reports whether a candidate of the given value is admissible
// (finite) and would replace best under the first-minimum scan.
func displaces(value float64, best *blockSol) bool {
	return !math.IsInf(value, 1) && (!best.ok || value < best.value)
}

// satisfies reports whether a candidate's subtree meets the block's
// active constraints: its covered pairs must make every inclusion a
// clique and no exclusion one. Unconstrained solves pass trivially.
func (s *Solver) satisfies(cand *candidate, cc *compiledConstraints, act []activeCon, sc *solveScratch) bool {
	return cc == nil || checkActive(act, s.subtreeCoverage(sc.coverage(cc.words), cand, cc, sc))
}

func (s *Solver) evalBags(g *graph.Graph, bags []vset.Set) float64 {
	return s.c.Eval(g, bags)
}

// buildResult assembles the decomposition tree, triangulation, bags and
// separators of the solved top block. Separators are collected by
// interned ID; ascending ID order is the canonical vset.Compare order
// because the separator table is built from the sorted separator list.
func (s *Solver) buildResult(top int, sols []blockSol) *Result {
	tree := td.New()
	sepSeen := intern.NewBitset(s.sepTab.Len())
	var build func(bi int) int
	build = func(bi int) int {
		bd := &s.blocks[bi]
		cand := &bd.cands[sols[bi].cand]
		node := tree.AddNode(cand.omega.Clone())
		for _, child := range cand.children {
			cn := build(child)
			tree.AddEdge(node, cn)
			if id := s.blockSepID[child]; id >= 0 {
				sepSeen.Set(id)
			}
		}
		return node
	}
	build(top)
	h := s.g.Clone()
	for _, b := range tree.Bags {
		h.SaturateInPlace(b)
	}
	n := sepSeen.Count()
	seps := make([]vset.Set, 0, n)
	sepIDs := make([]int, 0, n)
	sepSeen.ForEach(func(id int) {
		seps = append(seps, s.sepTab.Set(id))
		sepIDs = append(sepIDs, id)
	})
	return &Result{
		H:      h,
		Tree:   tree,
		Bags:   append([]vset.Set(nil), tree.Bags...),
		Seps:   seps,
		sepIDs: sepIDs,
		Cost:   s.evalBags(s.g, tree.Bags),
	}
}
