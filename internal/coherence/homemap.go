package coherence

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
		panic("coherence: home map over zero nodes")
	}
	return HomeMap{n: n}
}

// HomeOf returns the home index of a line address.
func (m HomeMap) HomeOf(addr uint64) int {
	return int((addr / chi.LineSize) % uint64(m.n))
}
