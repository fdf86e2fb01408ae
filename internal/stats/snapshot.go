package stats

import "chipletnoc/internal/sim"

// SnapState walks the histogram's exact state — sample order, the
// running sum and the sorted flag — so a resumed run reports statistics
// bit-identical to an uninterrupted one (the sum is order-sensitive in
// floating point, so it is carried rather than recomputed). Loading
// replaces the histogram's contents. Samples travel as integers, so
// saving a histogram holding a non-integer sample fails.
func (h *Histogram) SnapState(c *sim.Codec) {
	c.F64s(&h.samples)
	c.F64(&h.sum)
	c.Bool(&h.sorted)
}
