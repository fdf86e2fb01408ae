// Package cache holds the address-to-home mapping of the on-die caches
// that sit on the NoC: the Server-CPU's split L3 (tag cache per 4-core
// cluster + separate data slices) and the AI die's interleaved L2. Only
// L3 hit/miss events invoke NoC transactions (Section 3.2.1), so the
// private L1/L2 levels are not modelled; the protocol engines that sit
// behind these maps live in internal/coherence.
package cache

import "chipletnoc/internal/chi"

// HomeMap distributes line addresses over n home nodes. The Server-CPU
// homes lines on L3-tag clusters; the AI die interleaves them over L2
// slices — both use line-granularity modulo interleaving so sequential
// streams spread evenly (Section 3.2.2).
type HomeMap struct {
	n int
}

// NewHomeMap creates a map over n homes.
func NewHomeMap(n int) HomeMap {
	if n <= 0 {
		panic("cache: home map over zero nodes")
	}
	return HomeMap{n: n}
}

// HomeOf returns the home index of a line address.
func (m HomeMap) HomeOf(addr uint64) int {
	return int((addr / chi.LineSize) % uint64(m.n))
}

// Homes returns the number of home nodes.
func (m HomeMap) Homes() int { return m.n }
