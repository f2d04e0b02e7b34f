// Package vset provides compact vertex sets backed by bit sets.
//
// A Set is an immutable-by-convention value: operations that would mutate a
// set return a new one unless the method name ends in InPlace. Sets over the
// same universe size can be compared, hashed via Key, and iterated in
// ascending vertex order. The zero value is the empty set over an empty
// universe; use New(n) for a set over vertices 0..n-1.
package vset

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of vertices drawn from the universe {0, ..., n-1}.
// The universe size is fixed at construction and is carried by the word
// slice length; all binary operations require operands of equal universe.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe {0, ..., n-1}.
func New(n int) Set {
	if n < 0 {
		panic("vset: negative universe size")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Of returns a set over {0,...,n-1} containing the given vertices.
func Of(n int, vertices ...int) Set {
	s := New(n)
	for _, v := range vertices {
		s.AddInPlace(v)
	}
	return s
}

// FromSlice returns a set over {0,...,n-1} containing the vertices in vs.
func FromSlice(n int, vs []int) Set {
	return Of(n, vs...)
}

// Full returns the set {0, ..., n-1}.
func Full(n int) Set {
	s := New(n)
	for v := 0; v < n; v++ {
		s.AddInPlace(v)
	}
	return s
}

// Universe returns the universe size n the set was created with.
func (s Set) Universe() int { return s.n }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

func (s Set) check(v int) {
	if v < 0 || v >= s.n {
		panic("vset: vertex " + strconv.Itoa(v) + " outside universe of size " + strconv.Itoa(s.n))
	}
}

// Contains reports whether v is in s.
func (s Set) Contains(v int) bool {
	s.check(v)
	return s.words[v/wordBits]&(1<<uint(v%wordBits)) != 0
}

// AddInPlace inserts v into s.
func (s *Set) AddInPlace(v int) {
	s.check(v)
	s.words[v/wordBits] |= 1 << uint(v%wordBits)
}

// RemoveInPlace deletes v from s.
func (s *Set) RemoveInPlace(v int) {
	s.check(v)
	s.words[v/wordBits] &^= 1 << uint(v%wordBits)
}

// Add returns s ∪ {v}.
func (s Set) Add(v int) Set {
	c := s.Clone()
	c.AddInPlace(v)
	return c
}

// Remove returns s \ {v}.
func (s Set) Remove(v int) Set {
	c := s.Clone()
	c.RemoveInPlace(v)
	return c
}

// Len returns |s|.
func (s Set) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// IsEmpty reports whether s has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s Set) sameUniverse(t Set) {
	if s.n != t.n {
		panic("vset: universe mismatch: " + strconv.Itoa(s.n) + " vs " + strconv.Itoa(t.n))
	}
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	s.sameUniverse(t)
	c := s.Clone()
	c.UnionInPlace(t)
	return c
}

// UnionInPlace sets s to s ∪ t.
func (s *Set) UnionInPlace(t Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	s.sameUniverse(t)
	c := s.Clone()
	c.IntersectInPlace(t)
	return c
}

// IntersectInPlace sets s to s ∩ t.
func (s *Set) IntersectInPlace(t Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	s.sameUniverse(t)
	c := s.Clone()
	c.DiffInPlace(t)
	return c
}

// DiffInPlace sets s to s \ t.
func (s *Set) DiffInPlace(t Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Equal reports whether s and t contain the same vertices.
func (s Set) Equal(t Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersects reports whether s ∩ t is nonempty.
func (s Set) Intersects(t Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionLen returns |s ∩ t| without allocating.
func (s Set) IntersectionLen(t Set) int {
	s.sameUniverse(t)
	total := 0
	for i := range s.words {
		total += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return total
}

// First returns the smallest vertex in s, or -1 if s is empty.
func (s Set) First() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Next returns the smallest vertex in s strictly greater than v,
// or -1 if there is none. Next(-1) equals First().
func (s Set) Next(v int) int {
	v++
	if v >= s.n {
		return -1
	}
	i := v / wordBits
	w := s.words[i] >> uint(v%wordBits)
	if w != 0 {
		return v + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// ForEach calls fn for each vertex of s in ascending order.
// If fn returns false, iteration stops.
func (s Set) ForEach(fn func(v int) bool) {
	for i, w := range s.words {
		base := i * wordBits
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if !fn(v) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the vertices of s in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Relabel returns the set {perm[v] : v ∈ s} over the same universe. perm
// must map every member to a label within the universe (graph.Relabel
// validates bijectivity for whole-graph relabelings; here only the
// members' images are touched).
func (s Set) Relabel(perm []int) Set {
	out := New(s.n)
	s.ForEach(func(v int) bool {
		out.AddInPlace(perm[v])
		return true
	})
	return out
}

// Words exposes the little-endian bitset words backing s, least
// significant vertex first. Writing to the slice writes to s, so only
// the sole owner of a set may do it (graph.ForEachComponent grows its
// scratch sets this way); everyone else must treat it as read-only. It is
// the zero-copy input to hashing (graph.Fingerprint) and to word-parallel
// scans.
func (s Set) Words() []uint64 { return s.words }

// Key returns a canonical string key for s, usable as a map key.
// Two sets over the same universe have equal keys iff they are equal.
func (s Set) Key() string {
	var buf [64]byte // the key of a set over up to 512 vertices
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of s's Key to dst and returns the extended
// buffer. A map lookup on string(s.AppendKey(stackBuf[:0])) allocates
// nothing, which is how intern.Table looks sets up.
func (s Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Compare orders sets first by cardinality, then lexicographically by
// their word representation. It returns -1, 0, or +1.
func (s Set) Compare(t Set) int {
	s.sameUniverse(t)
	sl, tl := s.Len(), t.Len()
	switch {
	case sl < tl:
		return -1
	case sl > tl:
		return 1
	}
	for i := len(s.words) - 1; i >= 0; i-- {
		switch {
		case s.words[i] < t.words[i]:
			return -1
		case s.words[i] > t.words[i]:
			return 1
		}
	}
	return 0
}

// String renders s as "{v0, v1, ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(v))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
