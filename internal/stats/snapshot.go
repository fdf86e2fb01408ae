package stats

import (
	"cmp"
	"math"

	"chipletnoc/internal/sim"
)

// SnapState walks the histogram's exact state — sample order, the
// running sum and the sorted flag — so a resumed run reports statistics
// bit-identical to an uninterrupted one. The samples travel as one
// array, the compacted ones first and then each chunk in order, so where
// a sample lies moves no byte. Loading replaces the histogram's contents
// with one exactly sized slice.
//
// Samples travel as integers, so saving fails on a non-integer sample,
// and on a total of 2^53 or more. Below that the running sum of whole
// samples is exact, so a load refuses, as corrupt, a sum that is not its
// samples' total and a sorted flag over samples out of order.
func (h *Histogram) SnapState(c *sim.Codec) {
	if !c.Loading() && !(h.sum < 1<<53) {
		c.Fail("histogram total %v is not below 2^53", h.sum)
	}
	c.F64s(&h.flat, h.chunks...)
	c.F64(&h.sum)
	c.Bool(&h.sorted)
	if !c.Loading() {
		return
	}
	if h.chunks = nil; c.Err() != nil {
		return
	}
	var total uint64
	for i, v := range h.flat {
		if h.sorted && i > 0 && v < h.flat[i-1] {
			c.Fail("histogram marked sorted has sample %v after %v", v, h.flat[i-1])
			return
		}
		if total += uint64(v); total >= 1<<53 {
			c.Fail("histogram total is not below 2^53")
			return
		}
	}
	if math.Float64bits(float64(total)) != math.Float64bits(h.sum) {
		c.Fail("histogram sum %v is not its samples' total %d", h.sum, total)
	}
}

// SnapState walks the sketch's population — the occupied buckets in index
// order, the zero count and the exact aggregates — and a load refuses a
// count that is not the buckets' and zeros' total.
func (s *QuantileSketch) SnapState(c *sim.Codec) {
	total := uint64(0)
	sim.Map(c, &s.counts, 1<<16, cmp.Less[int32], func(idx *int32, n *uint64) {
		sim.Int(c, idx)
		c.U64(n)
		total += *n
	})
	c.U64(&s.zeros)
	c.U64(&s.count)
	c.U64(&s.sum)
	c.U64(&s.min)
	c.U64(&s.max)
	if c.Loading() && total+s.zeros != s.count {
		c.Fail("sketch of %d samples holds %d", s.count, total+s.zeros)
	}
}
