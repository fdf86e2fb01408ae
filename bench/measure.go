package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// rule the acceptance check applies to the spread of ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates of the reporting rule, ascending,
// each with the share of samples beyond it as 1/den.
var tailPercentiles = []struct {
	p   float64
	den int
}{{75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// tailPercentile applies the reporting rule for a timing with n
// samples: beside the median, report the highest percentile that still
// has at least ten samples beyond it. ok is false when even p75 has
// fewer (n < 40), in which case only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n >= 10*c.den {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// peakRSSMB is the process's peak resident set in MiB (getrusage;
// Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAllocMB is the cumulative heap allocation volume in MiB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64      { return float64(d) / float64(time.Microsecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// timeIt returns fn's wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// perCall times n back-to-back calls of fn and returns the mean cost of
// one, for primitives too short to time singly.
func perCall(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// medianOf runs sample reps times and returns the median of its
// durations, which keeps one descheduled repetition out of a probe.
func medianOf(reps int, sample func() time.Duration) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = float64(sample())
	}
	return time.Duration(median(xs))
}
