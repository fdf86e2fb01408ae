package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Derive(1)
	b := root.Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams collide %d/100 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) missed")
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

// identity returns 0, 1, ..., n-1.
func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := identity(50)
	r.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("permutation misses values: %v", p)
	}
}

// TestRNGPermDraws pins a seeded generator's first shuffles of 0..n-1
// and the draw that follows them: Perm consumes exactly one Intn per
// position from the tail, so a change to its draw order or count moves
// these literals before it moves any serving golden.
func TestRNGPermDraws(t *testing.T) {
	r := NewRNG(7)
	want := [][]int{
		{0},
		{0, 1},
		{1, 3, 0, 2, 4},
		{2, 4, 3, 7, 6, 0, 5, 1},
		{4, 1, 2, 7, 5, 0, 3, 6},
		{1, 10, 3, 0, 2, 15, 14, 12, 6, 5, 4, 7, 11, 9, 13, 8},
	}
	for _, w := range want {
		p := identity(len(w))
		r.Perm(p)
		if !slices.Equal(p, w) {
			t.Fatalf("Perm of 0..%d = %v, want %v", len(w)-1, p, w)
		}
	}
	if got := r.Uint64(); got != 10283542806791360001 {
		t.Errorf("draw after the shuffles = %d, want 10283542806791360001", got)
	}
}
