package stats

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"chipletnoc/internal/sim"
)

// allocatedBy returns the bytes f allocates, from the runtime's
// cumulative count; f must not start goroutines.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHistogramGrowthCopiesNothing: recording 2^17 samples allocates the
// samples' bytes, at most one chunk of spare room and the chunk
// directory — no sample is copied as the population grows. A flat slice
// grown by append allocated four to five times the samples.
func TestHistogramGrowthCopiesNothing(t *testing.T) {
	const n = 1 << 17
	var h Histogram
	got := allocatedBy(func() {
		for i := 0; i < n; i++ {
			h.Add(float64(i % 1000))
		}
	})
	// Chunks of 16, 32, … 1024 samples (2032 in all), then 1024 each. The
	// directory of 24-byte chunk headers grows by doubling: under twice
	// its final capacity, which is under twice the chunk count.
	chunks := 7 + (n-2032+maxChunk-1)/maxChunk
	bound := uint64(8*n + 8*maxChunk + 4*24*chunks)
	if got > bound {
		t.Errorf("2^17 Adds allocated %d bytes, want at most %d", got, bound)
	}
	if h.Count() != n {
		t.Fatalf("Count %d, want %d", h.Count(), n)
	}
}

// TestRepeatedQueryAllocatesNothing: a query with no new samples since
// the last one neither compacts nor sorts again.
func TestRepeatedQueryAllocatesNothing(t *testing.T) {
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Add(float64(i * 7 % 301))
	}
	h.Percentile(99)
	if n := testing.AllocsPerRun(10, func() { h.Percentile(99); h.Min(); h.Max() }); n != 0 {
		t.Errorf("%v allocations per repeated query, want 0", n)
	}
}

// TestMergeIntoGrownAllocatesNothing: Grow makes room for the samples of
// the histograms merged next, whether their samples are chunked, flat
// and sorted, or both.
func TestMergeIntoGrownAllocatesNothing(t *testing.T) {
	var chunked, sorted, both Histogram
	for i := 0; i < 3000; i++ {
		chunked.Add(float64(i % 17))
		sorted.Add(float64(i % 23))
		both.Add(float64(i % 29))
	}
	sorted.Percentile(50)
	both.Percentile(50)
	for i := 0; i < 100; i++ {
		both.Add(float64(i))
	}
	var h Histogram
	total := chunked.Count() + sorted.Count() + both.Count()
	h.Grow(2 * total) // AllocsPerRun runs the function once before it counts
	if n := testing.AllocsPerRun(1, func() { h.Merge(&chunked); h.Merge(&sorted); h.Merge(&both) }); n != 0 {
		t.Errorf("%v allocations merging into a grown histogram, want 0", n)
	}
	if h.Count() != 2*total {
		t.Fatalf("Count %d, want %d", h.Count(), 2*total)
	}
}

// encodedHistogram returns a histogram's checkpoint bytes written field
// by field, consistent or not.
func encodedHistogram(samples []uint64, sum float64, sorted bool) []byte {
	e := sim.NewEncoder()
	e.PutUvarint(uint64(len(samples)))
	for _, v := range samples {
		e.PutUvarint(v)
	}
	e.PutF64(sum)
	e.PutBool(sorted)
	return e.Data()
}

// TestRestoreRefusesInconsistentHistogram: a checkpoint whose sorted flag
// covers samples out of order, or whose sum is not its samples' total,
// would resume into wrong percentiles and means; loading refuses it as
// corrupt. Saving refuses a total of 2^53 or more, so no save writes what
// a load refuses.
func TestRestoreRefusesInconsistentHistogram(t *testing.T) {
	load := func(data []byte) (*Histogram, error) {
		var h Histogram
		c := sim.Loading(sim.NewDecoder(data))
		h.SnapState(c)
		return &h, c.Err()
	}
	if h, err := load(encodedHistogram([]uint64{1, 3, 5}, 9, true)); err != nil || h.Percentile(50) != 3 || h.Mean() != 3 {
		t.Fatalf("consistent histogram: err %v", err)
	}
	for name, data := range map[string][]byte{
		"sorted over unsorted samples": encodedHistogram([]uint64{5, 1, 3}, 9, true),
		"sum above the total":          encodedHistogram([]uint64{5, 1, 3}, 10, false),
		"sum below the total":          encodedHistogram([]uint64{5, 1, 3}, 8, false),
		"negative zero sum":            encodedHistogram(nil, math.Copysign(0, -1), false),
		"total of 2^53":                encodedHistogram([]uint64{1 << 52, 1 << 52}, 1<<53, false),
	} {
		if _, err := load(data); !errors.Is(err, sim.ErrCorruptSnapshot) {
			t.Errorf("%s: load err %v, want ErrCorruptSnapshot", name, err)
		}
	}
	var big Histogram
	big.Add(1 << 52)
	big.Add(1<<52 - 1)
	if saved(big.SnapState) == nil {
		t.Fatal("a total just below 2^53 was refused")
	}
	big.Add(1)
	if saved(big.SnapState) != nil {
		t.Error("a histogram totalling 2^53 was saved")
	}
}

// BenchmarkHistogramAdd records a population of 2^17 samples and takes
// its P99, as a run's latency histogram does, for the chunked Histogram
// and the flat reference it replaced. With -benchmem, B/op is what one
// population allocates: about twice the samples' bytes chunked (the
// chunks, then the one sorted slice), over four times flat.
func BenchmarkHistogramAdd(b *testing.B) {
	const n = 1 << 17
	b.Run("chunked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var h Histogram
			for j := 0; j < n; j++ {
				h.Add(float64(j * 7 % 1009))
			}
			h.Percentile(99)
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var h flatHistogram
			for j := 0; j < n; j++ {
				h.Add(float64(j * 7 % 1009))
			}
			h.Percentile(99)
		}
	})
}
