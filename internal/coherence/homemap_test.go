package coherence

import (
	"testing"
	"testing/quick"

	"chipletnoc/internal/chi"
)

func TestHomeMapCoversAllHomes(t *testing.T) {
	m := NewHomeMap(24)
	seen := make(map[int]int)
	for addr := uint64(0); addr < 24*chi.LineSize*10; addr += chi.LineSize {
		h := m.HomeOf(addr)
		if h < 0 || h >= 24 {
			t.Fatalf("home %d out of range", h)
		}
		seen[h]++
	}
	for h := 0; h < 24; h++ {
		if seen[h] != 10 {
			t.Fatalf("home %d got %d/10 lines", h, seen[h])
		}
	}
}

func TestHomeMapStable(t *testing.T) {
	m := NewHomeMap(7)
	f := func(addr uint64) bool {
		return m.HomeOf(addr) == m.HomeOf(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeMapSameLineSameHome(t *testing.T) {
	m := NewHomeMap(7)
	f := func(addr uint64, off uint8) bool {
		base := addr &^ uint64(chi.LineSize-1)
		return m.HomeOf(base) == m.HomeOf(base+uint64(off%chi.LineSize))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeMapPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHomeMap(0)
}
