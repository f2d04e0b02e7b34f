package intern

import (
	"sync"
	"testing"

	"repro/internal/vset"
)

func TestTableInternLookup(t *testing.T) {
	tab := New(4)
	a := vset.Of(8, 1, 3)
	b := vset.Of(8, 2)
	id, fresh := tab.Intern(a)
	if id != 0 || !fresh {
		t.Fatalf("Intern(a) = %d, %v; want 0, true", id, fresh)
	}
	id, fresh = tab.Intern(b)
	if id != 1 || !fresh {
		t.Fatalf("Intern(b) = %d, %v; want 1, true", id, fresh)
	}
	// Re-interning an equal set (different instance) is a no-op.
	id, fresh = tab.Intern(vset.Of(8, 3, 1))
	if id != 0 || fresh {
		t.Fatalf("Intern(a') = %d, %v; want 0, false", id, fresh)
	}
	if got, ok := tab.Lookup(b); !ok || got != 1 {
		t.Fatalf("Lookup(b) = %d, %v; want 1, true", got, ok)
	}
	if _, ok := tab.Lookup(vset.Of(8, 7)); ok {
		t.Fatal("Lookup of absent set reported present")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d; want 2", tab.Len())
	}
	if !tab.Set(0).Equal(a) || !tab.Set(1).Equal(b) {
		t.Fatal("Set(id) does not round-trip")
	}
	if !tab.Contains(a) || tab.Contains(vset.Of(8, 7)) {
		t.Fatal("Contains is wrong")
	}
}

func TestFromSets(t *testing.T) {
	sets := []vset.Set{vset.Of(4, 0), vset.Of(4, 1), vset.Of(4, 0)}
	tab := FromSets(sets)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d; want 2 (duplicate collapsed)", tab.Len())
	}
	if id, _ := tab.Lookup(vset.Of(4, 0)); id != 0 {
		t.Fatalf("duplicate did not keep first position: id %d", id)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Has(i) {
			t.Fatalf("Has(%d) = false", i)
		}
	}
	if b.Has(1) || b.Has(128) {
		t.Fatal("unset bit reported set")
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d; want 4", b.Count())
	}
	o := NewBitset(130)
	o.Set(5)
	b.Or(o)
	if !b.Has(5) || b.Count() != 5 {
		t.Fatal("Or failed")
	}
	c := b.Clone()
	c.Set(6)
	if b.Has(6) {
		t.Fatal("Clone aliases the original")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 5, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v; want %v", got, want)
		}
	}
}

// TestTableConcurrentLookup reads finished tables from several goroutines
// at once, as enumeration workers read the solver's separator table: each
// lookup builds its key in its own buffer, so under -race no two readers
// share scratch. Universes of 100 and 600 vertices cover keys that fit
// the stack buffer and keys that outgrow it.
func TestTableConcurrentLookup(t *testing.T) {
	for _, n := range []int{100, 600} {
		var sets []vset.Set
		for v := 0; v+1 < n; v += 3 {
			sets = append(sets, vset.Of(n, v, v+1))
		}
		tab := FromSets(sets)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					for i, s := range sets {
						if id, ok := tab.Lookup(vset.Of(n, 3*i+1, 3*i)); !ok || id != i {
							t.Errorf("n=%d: Lookup(%v) = %d, %v; want %d, true", n, s, id, ok, i)
							return
						}
						if tab.Contains(vset.Of(n, 3*i, 3*i+2)) {
							t.Errorf("n=%d: Contains reports a set never interned", n)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
