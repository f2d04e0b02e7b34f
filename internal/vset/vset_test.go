package vset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatalf("new set not empty: %v", s)
	}
	s.AddInPlace(0)
	s.AddInPlace(64)
	s.AddInPlace(129)
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, v := range []int{0, 64, 129} {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Errorf("unexpected membership")
	}
	s.RemoveInPlace(64)
	if s.Contains(64) {
		t.Errorf("Contains(64) after remove")
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []int{0, 129}) {
		t.Errorf("Slice = %v, want [0 129]", got)
	}
}

func TestOfAndFull(t *testing.T) {
	s := Of(10, 1, 3, 5)
	if got := s.Slice(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Of = %v", got)
	}
	f := Full(70)
	if f.Len() != 70 {
		t.Fatalf("Full(70).Len = %d", f.Len())
	}
	if f.First() != 0 || f.Next(68) != 69 || f.Next(69) != -1 {
		t.Fatalf("Full iteration broken")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(100, 1, 2, 3, 70)
	b := Of(100, 2, 3, 4, 99)
	if got := a.Union(b).Slice(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 70, 99}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Slice(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b).Slice(); !reflect.DeepEqual(got, []int{1, 70}) {
		t.Errorf("Diff = %v", got)
	}
	if a.IntersectionLen(b) != 2 {
		t.Errorf("IntersectionLen = %d", a.IntersectionLen(b))
	}
	if !a.Intersects(b) {
		t.Errorf("Intersects = false")
	}
	if a.Intersects(Of(100, 50)) {
		t.Errorf("Intersects with disjoint = true")
	}
}

func TestSubsetAndEqual(t *testing.T) {
	a := Of(64, 1, 2)
	b := Of(64, 1, 2, 3)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Errorf("SubsetOf wrong")
	}
	if !a.ProperSubsetOf(b) || a.ProperSubsetOf(a) {
		t.Errorf("ProperSubsetOf wrong")
	}
	if !a.Equal(Of(64, 2, 1)) {
		t.Errorf("Equal wrong")
	}
}

func TestNextAndForEach(t *testing.T) {
	s := Of(200, 0, 63, 64, 127, 199)
	var got []int
	for v := s.First(); v != -1; v = s.Next(v) {
		got = append(got, v)
	}
	want := []int{0, 63, 64, 127, 199}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	var early []int
	s.ForEach(func(v int) bool {
		early = append(early, v)
		return v < 64
	})
	if !reflect.DeepEqual(early, []int{0, 63, 64}) {
		t.Fatalf("ForEach early stop = %v", early)
	}
	if New(0).First() != -1 {
		t.Fatalf("empty First != -1")
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string][]int{}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		s := New(90)
		for v := 0; v < 90; v++ {
			if rng.Intn(2) == 0 {
				s.AddInPlace(v)
			}
		}
		key := s.Key()
		if prev, ok := seen[key]; ok && !reflect.DeepEqual(prev, s.Slice()) {
			t.Fatalf("key collision: %v vs %v", prev, s.Slice())
		}
		seen[key] = s.Slice()
	}
}

// TestAppendKey checks that AppendKey appends Key's bytes — eight
// little-endian bytes per word — after whatever the buffer holds.
func TestAppendKey(t *testing.T) {
	s := Of(70, 0, 9, 64, 69)
	want := "\x01\x02\x00\x00\x00\x00\x00\x00" + "\x21\x00\x00\x00\x00\x00\x00\x00"
	if got := s.Key(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if got := string(s.AppendKey([]byte("p|"))); got != "p|"+want {
		t.Fatalf("AppendKey = %q, want %q", got, "p|"+want)
	}
}

func TestCompare(t *testing.T) {
	a := Of(20, 1)
	b := Of(20, 1, 2)
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatalf("Compare by cardinality wrong")
	}
	c := Of(20, 3)
	d := Of(20, 4)
	if c.Compare(d) != -1 || d.Compare(c) != 1 {
		t.Fatalf("Compare tie-break wrong")
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-universe vertex")
		}
	}()
	s := New(5)
	s.AddInPlace(5)
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for universe mismatch")
		}
	}()
	New(5).Union(New(6))
}

// randomPair builds two random sets over the same universe from quick's seeds.
func randomPair(rng *rand.Rand) (Set, Set) {
	n := 1 + rng.Intn(150)
	a, b := New(n), New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			a.AddInPlace(v)
		}
		if rng.Intn(2) == 0 {
			b.AddInPlace(v)
		}
	}
	return a, b
}

func TestQuickAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomPair(rng)
		// De Morgan-ish identities on finite sets.
		u := a.Union(b)
		i := a.Intersect(b)
		if u.Len()+i.Len() != a.Len()+b.Len() {
			return false
		}
		if !i.SubsetOf(a) || !i.SubsetOf(b) || !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !a.Diff(b).Union(i).Equal(a) {
			return false
		}
		if a.IntersectionLen(b) != i.Len() {
			return false
		}
		if (a.Compare(b) == 0) != a.Equal(b) {
			return false
		}
		return a.Union(b).Equal(b.Union(a))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomPair(rng)
		return (a.Key() == b.Key()) == a.Equal(b)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
