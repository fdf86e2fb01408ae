package stats

import "testing"

// These tests pin the edge semantics the experiment code depends on:
// nearest-rank percentiles (no interpolation), order-insensitive Merge,
// and the degenerate inputs of the equilibrium metric. The documented
// behaviours here are load-bearing — Table 5/7 percentile columns and
// the Figure 14 equilibrium claim all read through them.

func histOf(vs ...float64) *Histogram {
	h := &Histogram{}
	for _, v := range vs {
		h.Add(v)
	}
	return h
}

// TestPercentileNearestRankEvenCount pins nearest-rank on an even
// population: rank = ceil(p/100*n)-1, so with n=4 the 50th percentile is
// the second sample (the lower middle), not the midpoint 2.5.
func TestPercentileNearestRankEvenCount(t *testing.T) {
	h := histOf(4, 1, 3, 2) // insertion order must not matter
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {-5, 1}, // p<=0 is the minimum
		{25, 1},            // ceil(1)-1 = 0
		{26, 2},            // ceil(1.04)-1 = 1
		{50, 2},            // lower middle, never 2.5
		{51, 3},            // ceil(2.04)-1 = 2
		{75, 3},            // ceil(3)-1 = 2
		{76, 4},            // ceil(3.04)-1 = 3
		{99, 4},            // ceil(3.96)-1 = 3
		{100, 4}, {150, 4}, // p>=100 is the maximum
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileSingleAndEmpty pins the degenerate populations.
func TestPercentileSingleAndEmpty(t *testing.T) {
	empty := &Histogram{}
	for _, p := range []float64{0, 50, 100} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	one := histOf(7)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := one.Percentile(p); got != 7 {
			t.Errorf("single-sample Percentile(%v) = %v, want 7", p, got)
		}
	}
}

// TestMergeSortedAndUnsorted pins that Merge is insensitive to the sort
// state of either operand: querying a percentile sorts a histogram in
// place, and merging afterwards must still produce the combined
// population, not a corrupted one.
func TestMergeSortedAndUnsorted(t *testing.T) {
	build := func(sortLeft, sortRight bool) *Histogram {
		left := histOf(9, 1, 5)
		right := histOf(8, 2)
		if sortLeft {
			left.Percentile(50) // forces the internal sort
		}
		if sortRight {
			right.Percentile(50)
		}
		left.Merge(right)
		return left
	}
	for _, c := range []struct{ l, r bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		h := build(c.l, c.r)
		if h.Count() != 5 {
			t.Fatalf("sortLeft=%v sortRight=%v: count = %d, want 5", c.l, c.r, h.Count())
		}
		if got := h.Mean(); got != 5 {
			t.Errorf("sortLeft=%v sortRight=%v: mean = %v, want 5", c.l, c.r, got)
		}
		// Sorted population is [1,2,5,8,9]: p50 rank ceil(2.5)-1 = 2.
		if got := h.Percentile(50); got != 5 {
			t.Errorf("sortLeft=%v sortRight=%v: p50 = %v, want 5", c.l, c.r, got)
		}
		if got := h.Max(); got != 9 {
			t.Errorf("sortLeft=%v sortRight=%v: max = %v, want 9", c.l, c.r, got)
		}
	}
	// Merge must not disturb the merged-from histogram.
	right := histOf(8, 2)
	histOf(1).Merge(right)
	if right.Count() != 2 || right.Mean() != 5 {
		t.Errorf("Merge mutated its operand: %+v", right)
	}
}

// TestEquilibriumVsPeakEmptyAndShort pins the degenerate equilibrium
// inputs.
func TestEquilibriumVsPeakEmptyAndShort(t *testing.T) {
	if got := EquilibriumVsPeak(nil, 0.8); got != 0 {
		t.Errorf("EquilibriumVsPeak(nil) = %v, want 0", got)
	}
	if got := EquilibriumVsPeak([][]float64{{}}, 0.8); got != 0 {
		t.Errorf("EquilibriumVsPeak([[]]) = %v, want 0", got)
	}
	if got := EquilibriumVsPeak([][]float64{{0, 0}}, 0.8); got != 0 {
		t.Errorf("EquilibriumVsPeak(all zero) = %v, want 0", got)
	}
	// Short series are NOT truncated: every recorded window scores against
	// the best probe's mean.
	series := [][]float64{
		{10, 10, 10}, // mean 10 = peak
		{10},         // one window, at peak
	}
	if got := EquilibriumVsPeak(series, 0.8); got != 1 {
		t.Errorf("EquilibriumVsPeak(ragged) = %v, want 1", got)
	}
	if got := PeakMeanRate(series); got != 10 {
		t.Errorf("PeakMeanRate = %v, want 10", got)
	}
	if got := PeakMeanRate([][]float64{{}}); got != 0 {
		t.Errorf("PeakMeanRate(empty series) = %v, want 0", got)
	}
}
