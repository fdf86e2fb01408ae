// Streaming quantile sketch for the open-loop serving experiments. The
// raw-sample Histogram is exact but holds every observation; an offered-
// load sweep admits requests for the whole window whether or not the
// fabric keeps up, so a saturated point can record orders of magnitude
// more latencies than an equilibrium replay. The sketch bounds memory to
// the number of occupied buckets while keeping the two properties the
// determinism suite depends on: every operation is integer arithmetic
// (bit-identical on every platform, no libm in sight), and Merge is
// exactly associative and commutative, so per-shard sketches folded in
// any order — 1 worker or N — answer every quantile identically.
package stats

import (
	"math/bits"
	"slices"

	"chipletnoc/internal/sim"
)

// sketchSubBits fixes the sketch resolution: each power-of-two octave
// [2^e, 2^(e+1)) splits into 2^sketchSubBits linear buckets, giving a
// worst-case relative error of 2^-sketchSubBits (< 1.6%) on quantile
// answers. Samples below 2^(sketchSubBits+1) get a bucket each, so small
// integer latencies are answered exactly.
const sketchSubBits = 6

// QuantileSketch is a mergeable streaming summary of integer samples
// (cycle latencies). The zero value is ready to use. Queries sort into a
// scratch slice the sketch keeps, so a sketch is not safe for concurrent
// use, reads included.
type QuantileSketch struct {
	counts map[int32]uint64
	order  []int32 // sortedIndices' scratch
	zeros  uint64  // samples equal to zero (no octave to land in)
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// sketchIndex maps a positive sample to its bucket: the octave (floor
// log2) in the high bits, the linear sub-bucket within the octave in the
// low bits. Pure integer arithmetic — no float rounding to disagree
// across platforms.
func sketchIndex(v uint64) int32 {
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	shift := e - sketchSubBits
	if shift < 0 {
		shift = 0
	}
	sub := (v - 1<<uint(e)) >> uint(shift)
	return int32(e)<<sketchSubBits | int32(sub)
}

// sketchLowerBound inverts sketchIndex: the smallest sample value the
// bucket can hold, which is the sketch's quantile representative (a
// deterministic underestimate within the relative-error bound).
func sketchLowerBound(idx int32) uint64 {
	e := idx >> sketchSubBits
	sub := uint64(idx & (1<<sketchSubBits - 1))
	shift := int(e) - sketchSubBits
	if shift < 0 {
		shift = 0
	}
	return 1<<uint(e) + sub<<uint(shift)
}

// Observe records one sample.
func (s *QuantileSketch) Observe(v uint64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v == 0 {
		s.zeros++
		return
	}
	if s.counts == nil {
		s.counts = make(map[int32]uint64)
	}
	s.counts[sketchIndex(v)]++
}

// Count returns the number of samples recorded.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Sum returns the exact sum of all samples (integer, so merge order
// cannot perturb it).
func (s *QuantileSketch) Sum() uint64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Min returns the smallest sample (exact), or 0 with no samples.
func (s *QuantileSketch) Min() uint64 { return s.min }

// Max returns the largest sample (exact), or 0 with no samples.
func (s *QuantileSketch) Max() uint64 { return s.max }

// Merge folds another sketch's population into s (o is unchanged).
// Every field is a sum, min or max of integers, so merging shards in any
// grouping or order yields a bit-identical sketch — the property that
// lets per-worker latency shards collapse into one answer no matter
// how many workers produced them.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	s.zeros += o.zeros
	if len(o.counts) > 0 && s.counts == nil {
		s.counts = make(map[int32]uint64, len(o.counts))
	}
	for idx, n := range o.counts {
		s.counts[idx] += n
	}
}

// Quantile answers the q-th quantile (q in [0,1]) by nearest rank: the
// value at rank ceil(q*n), the same convention Histogram.Percentile
// uses, so the two instruments agree wherever the sketch is exact. The
// answer is a bucket lower bound clamped to the exact [min, max], and an
// empty sketch answers 0 for every q.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.min)
	}
	if q >= 1 {
		return float64(s.max)
	}
	rank := uint64(q * float64(s.count))
	if float64(rank) < q*float64(s.count) {
		rank++ // ceil for non-integral products
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	if rank <= s.zeros {
		return 0
	}
	seen := s.zeros
	for _, idx := range s.sortedIndices() {
		seen += s.counts[idx]
		if seen >= rank {
			v := sketchLowerBound(idx)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return float64(v)
		}
	}
	return float64(s.max)
}

// sortedIndices returns the occupied bucket indices in ascending order;
// map iteration order never leaks into an answer. The slice is the
// sketch's own scratch, reused by the next query, so a query allocates
// nothing once it has held every bucket.
func (s *QuantileSketch) sortedIndices() []int32 {
	s.order = s.order[:0]
	for idx := range s.counts {
		s.order = append(s.order, idx)
	}
	slices.Sort(s.order)
	return s.order
}

// Digest returns an FNV-1a hash over the sketch's canonical state —
// sorted (bucket, count) pairs plus the exact aggregates — pinning the
// entire latency population for golden determinism tests.
func (s *QuantileSketch) Digest() uint64 {
	h := sim.FNVOffset
	mix := func(v uint64) { h = sim.FNV1aFoldU64(h, v) }
	mix(s.count)
	mix(s.sum)
	mix(s.min)
	mix(s.max)
	mix(s.zeros)
	for _, idx := range s.sortedIndices() {
		mix(uint64(uint32(idx)))
		mix(s.counts[idx])
	}
	return h
}
