package stats

import (
	"testing"

	"chipletnoc/internal/sim"
)

// TestQuantileSketchExactSmallSamples checks hand-computed nearest-rank
// quantiles on populations small enough that every sample owns its own
// bucket, where the sketch must be exact — and must agree with the
// raw-sample Histogram's convention.
func TestQuantileSketchExactSmallSamples(t *testing.T) {
	var s QuantileSketch
	for _, v := range []uint64{7, 1, 4, 4, 9, 2, 100, 3, 5, 6} {
		s.Observe(v)
	}
	// Sorted: 1 2 3 4 4 5 6 7 9 100 (n=10).
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},      // min
		{0.10, 1},   // rank ceil(1.0)=1
		{0.25, 3},   // rank ceil(2.5)=3
		{0.50, 4},   // rank 5 (lower middle, nearest-rank)
		{0.90, 9},   // rank 9
		{0.99, 100}, // rank ceil(9.9)=10
		{1, 100},    // max
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Count() != 10 || s.Sum() != 141 {
		t.Errorf("count/sum = %d/%d, want 10/141", s.Count(), s.Sum())
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %d/%d, want 1/100", s.Min(), s.Max())
	}
	if want := 14.1; s.Mean() != want {
		t.Errorf("mean = %v, want %v", s.Mean(), want)
	}
}

// TestQuantileSketchAgreesWithHistogram cross-checks the sketch against
// the exact Histogram on an all-small population (every value < 128 is
// bucket-exact) including duplicates and zeros.
func TestQuantileSketchAgreesWithHistogram(t *testing.T) {
	rng := sim.NewRNG(42)
	var s QuantileSketch
	var h Histogram
	for i := 0; i < 500; i++ {
		v := uint64(rng.Intn(120))
		s.Observe(v)
		h.Add(float64(v))
	}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		if got, want := s.Quantile(p/100), h.Percentile(p); got != want {
			t.Errorf("p%v: sketch %v, histogram %v", p, got, want)
		}
	}
}

// TestQuantileSketchRelativeError pins the resolution bound for large
// samples: answers underestimate by at most 2^-sketchSubBits.
func TestQuantileSketchRelativeError(t *testing.T) {
	rng := sim.NewRNG(7)
	var s QuantileSketch
	var h Histogram
	for i := 0; i < 4000; i++ {
		v := uint64(rng.Intn(1 << 20))
		s.Observe(v)
		h.Add(float64(v))
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		got, exact := s.Quantile(p/100), h.Percentile(p)
		if got > exact {
			t.Errorf("p%v: sketch %v overestimates exact %v", p, got, exact)
		}
		if exact > 0 && (exact-got)/exact > 1.0/(1<<sketchSubBits) {
			t.Errorf("p%v: sketch %v outside relative-error bound of exact %v", p, got, exact)
		}
	}
}

// TestQuantileSketchMergeAssociative checks that partition shards merged
// in any grouping and order produce bit-identical sketches: (a∪b)∪c,
// a∪(b∪c) and c∪(a∪b) must agree on digest and every quantile.
func TestQuantileSketchMergeAssociative(t *testing.T) {
	shard := func(seed uint64, n int) *QuantileSketch {
		rng := sim.NewRNG(seed)
		var s QuantileSketch
		for i := 0; i < n; i++ {
			s.Observe(uint64(rng.Intn(1 << 16)))
		}
		return &s
	}
	a, b, c := shard(1, 300), shard(2, 500), shard(3, 40)

	var ab QuantileSketch
	ab.Merge(shard(1, 300))
	ab.Merge(shard(2, 500))
	ab.Merge(shard(3, 40))

	var bc QuantileSketch
	bc.Merge(b)
	bc.Merge(c)
	var abc QuantileSketch
	abc.Merge(a)
	abc.Merge(&bc)

	var cab QuantileSketch
	cab.Merge(shard(3, 40))
	cab.Merge(shard(1, 300))
	cab.Merge(shard(2, 500))

	if ab.Digest() != abc.Digest() || ab.Digest() != cab.Digest() {
		t.Fatalf("merge groupings disagree: %x %x %x", ab.Digest(), abc.Digest(), cab.Digest())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if ab.Quantile(q) != abc.Quantile(q) || ab.Quantile(q) != cab.Quantile(q) {
			t.Errorf("Quantile(%v) differs across merge orders", q)
		}
	}
}

// TestQuantileSketchShardingDeterminism pins the 1-vs-N-workers
// property directly: one sketch fed a sample stream sequentially equals
// N per-shard sketches fed a round-robin split of the same stream and
// merged — digests identical, so any downstream CSV is too.
func TestQuantileSketchShardingDeterminism(t *testing.T) {
	rng := sim.NewRNG(99)
	samples := make([]uint64, 2000)
	for i := range samples {
		samples[i] = uint64(rng.Intn(1 << 18))
	}
	var whole QuantileSketch
	for _, v := range samples {
		whole.Observe(v)
	}
	for _, workers := range []int{2, 3, 8} {
		shards := make([]QuantileSketch, workers)
		for i, v := range samples {
			shards[i%workers].Observe(v)
		}
		var merged QuantileSketch
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged.Digest() != whole.Digest() {
			t.Errorf("%d-way sharding digest %x != sequential %x", workers, merged.Digest(), whole.Digest())
		}
	}
}

// TestQuantileSketchZeroAndEmpty covers the degenerate populations the
// fuzzers like to find: empty sketches answer 0 everywhere, and zero
// samples occupy their own rank positions.
func TestQuantileSketchZeroAndEmpty(t *testing.T) {
	var s QuantileSketch
	for _, q := range []float64{0, 0.5, 1} {
		if s.Quantile(q) != 0 {
			t.Errorf("empty Quantile(%v) = %v", q, s.Quantile(q))
		}
	}
	s.Observe(0)
	s.Observe(0)
	s.Observe(10)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median of {0,0,10} = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("max of {0,0,10} = %v, want 10", got)
	}
}

// TestQuantileSketchPinned fixes the digest and quantiles of a population
// spread over every octave, so a change to the bucket store cannot move
// an answer the serving goldens would only catch later.
func TestQuantileSketchPinned(t *testing.T) {
	var s QuantileSketch
	r := sim.NewRNG(3)
	for i := 0; i < 5000; i++ {
		s.Observe(r.Uint64() >> (r.Uint64() % 64))
	}
	if got := s.Digest(); got != 0xb2d3a097423a505c {
		t.Errorf("digest %#x, want 0xb2d3a097423a505c", got)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 2.315255808e+09},
		{0.9, 1.0583459124320666e+17},
		{0.99, 6.845471433603154e+18},
		{0.999, 1.7293822569102705e+19},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestQuantileSketchQueriesAllocateNothing: a quantile or a digest sorts
// the occupied buckets into the sketch's own scratch slice, and an
// observation into an occupied bucket writes one counter.
func TestQuantileSketchQueriesAllocateNothing(t *testing.T) {
	var s QuantileSketch
	for v := uint64(0); v < 1<<12; v += 7 {
		s.Observe(v)
	}
	n := testing.AllocsPerRun(10, func() {
		s.Observe(1000)
		_ = s.Quantile(0.99)
		_ = s.Digest()
	})
	if n != 0 {
		t.Errorf("%v allocations per observe-quantile-digest", n)
	}
}
