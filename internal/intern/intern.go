// Package intern assigns dense integer IDs to vertex sets.
//
// The enumeration machinery manipulates the same separators, potential
// maximal cliques and blocks over and over: every Lawler–Murty branch of
// RankedTriang re-touches separators of the one fixed input graph. A
// Table interns each distinct set once — paying the string-key hash a
// single time — and hands back a dense ID, so every later hot-path
// membership test, dedup or per-set table becomes a slice index or a
// Bitset probe instead of a map[string] lookup on vset.Key() strings.
package intern

import (
	"math/bits"

	"repro/internal/vset"
)

// Table interns vertex sets, assigning IDs 0, 1, 2, ... in first-insertion
// order. The zero value is not ready; use New. A Table is not safe for
// concurrent mutation; read-only use (Lookup, Set, Len) after the last
// Intern is safe from any number of goroutines.
type Table struct {
	ids  map[string]int
	sets []vset.Set
}

// New returns an empty table with capacity for about n sets.
func New(n int) *Table {
	return &Table{ids: make(map[string]int, n)}
}

// FromSets builds a table whose IDs are the positions of the given sets.
// Duplicate sets keep their first position.
func FromSets(sets []vset.Set) *Table {
	t := New(len(sets))
	for _, s := range sets {
		t.Intern(s)
	}
	return t
}

// Intern returns the ID of s, inserting it if absent. fresh reports
// whether this call inserted it. The table retains s itself (sets are
// immutable by convention); callers must not mutate it afterwards.
func (t *Table) Intern(s vset.Set) (id int, fresh bool) {
	var buf [keyBuf]byte
	k := s.AppendKey(buf[:0])
	if id, ok := t.ids[string(k)]; ok {
		return id, false
	}
	id = len(t.sets)
	t.ids[string(k)] = id
	t.sets = append(t.sets, s)
	return id, true
}

// keyBuf sizes the stack buffer a lookup builds its key in: a hit
// allocates nothing for sets over up to 512 vertices. Each call owns its
// buffer, so concurrent readers share no scratch.
const keyBuf = 64

// Lookup returns the ID of s without inserting.
func (t *Table) Lookup(s vset.Set) (int, bool) {
	var buf [keyBuf]byte
	id, ok := t.ids[string(s.AppendKey(buf[:0]))]
	return id, ok
}

// Contains reports whether s has been interned.
func (t *Table) Contains(s vset.Set) bool {
	_, ok := t.Lookup(s)
	return ok
}

// Len returns the number of interned sets — one past the largest ID.
func (t *Table) Len() int { return len(t.sets) }

// Set returns the set with the given ID.
func (t *Table) Set(id int) vset.Set { return t.sets[id] }

// Sets returns the interned sets indexed by ID. The caller must not
// mutate the slice.
func (t *Table) Sets() []vset.Set { return t.sets }

// Bitset is a fixed-capacity bitmask over a dense ID space (block
// indices, separator IDs). Unlike vset.Set it carries no universe size —
// callers size it once with NewBitset and combine masks of equal length.
type Bitset []uint64

// NewBitset returns an all-zero mask able to hold IDs 0..n-1.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set marks ID i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << uint(i%64) }

// Has reports whether ID i is marked.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Or folds o into b (b |= o). The masks must have equal length.
func (b Bitset) Or(o Bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// Count returns the number of marked IDs.
func (b Bitset) Count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// ForEach calls fn for every marked ID in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		base := wi * 64
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
