package lru

import (
	"slices"
	"testing"
)

// TestLRU pins the contract every owner relies on: eviction goes least
// recently used first, where both Get and Put count as use; a replaced
// entry is charged its new cost; an entry larger than the whole budget is
// not kept and displaces nothing; and the callback hears of evictions
// only, not of Remove or replacement.
func TestLRU(t *testing.T) {
	var evicted []string
	l := New(10, func(k string, v int) { evicted = append(evicted, k) })
	check := func(what string, n int, bytes int64, gone ...string) {
		t.Helper()
		if l.Len() != n || l.Bytes() != bytes || !slices.Equal(evicted, gone) {
			t.Fatalf("%s: %d entries, %d bytes, evicted %q; want %d, %d, %q", what, l.Len(), l.Bytes(), evicted, n, bytes, gone)
		}
	}
	l.Put("a", 1, 4)
	l.Put("b", 2, 4)
	check("two entries under budget", 2, 8)

	// Touching a makes b the least recently used.
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	l.Put("c", 3, 4)
	check("b evicted for c", 2, 8, "b")
	if _, ok := l.Get("b"); ok {
		t.Fatal("evicted entry still served")
	}

	// Replacing a re-charges it and makes it most recent, without a callback.
	l.Put("a", 10, 2)
	check("a replaced", 2, 6, "b")
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("replaced value %d, want 10", v)
	}
	l.Put("d", 4, 4)
	check("d fits beside a and c", 3, 10, "b")
	l.Put("e", 5, 1) // over by one: c is the coldest
	check("c evicted for e", 3, 7, "b", "c")

	// Too large for the whole budget: refused, everything else stays.
	l.Put("huge", 6, 11)
	check("huge refused", 3, 7, "b", "c", "huge")
	if _, ok := l.Get("huge"); ok {
		t.Fatal("entry over the budget was kept")
	}

	// Remove drops without a callback, and says whether it found anything.
	if !l.Remove("d") || l.Remove("d") {
		t.Fatal("Remove misreported presence")
	}
	check("d removed", 2, 3, "b", "c", "huge")
}
