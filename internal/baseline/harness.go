package baseline

import (
	"chipletnoc/internal/sim"
	"chipletnoc/internal/stats"
)

// LoadPoint is one measurement of a load sweep.
type LoadPoint struct {
	// OfferedRate is attempted packets per node per cycle.
	OfferedRate float64
	// Throughput is delivered packets per node per cycle.
	Throughput float64
	// MeanLatency and P99 are cycles, over packets injected during the
	// measurement window.
	MeanLatency float64
	P99         float64
	// Saturated is set when the fabric could not absorb the offered
	// load (source queues grew without bound).
	Saturated bool
}

// MeasureUniform drives uniform-random traffic at the given per-node
// injection rate and measures latency/throughput over the window after a
// warmup. Blocked injections queue at the source (and count towards
// saturation).
func MeasureUniform(f Fabric, rate float64, payload int, warmup, window uint64, seed uint64) LoadPoint {
	n := f.Nodes()
	rng := sim.NewRNG(seed)
	var lat stats.Histogram
	// Destinations waiting at each source, as int32 node indices (the
	// width of noc.NodeID): a saturated point's backlogs grow to
	// hundreds of entries each.
	backlog := make([]sim.FIFO[int32], n)
	var deliveredInWindow uint64
	// One closure for the whole run, passed only with packets injected
	// inside the window: those are the ones the latency figures cover.
	record := func(l uint64) {
		lat.Add(float64(l))
		deliveredInWindow++
	}
	var done DeliverFunc // nil during warm-up

	for cyc := uint64(0); cyc < warmup+window; cyc++ {
		if cyc == warmup {
			done = record
		}
		for src := 0; src < n; src++ {
			q := &backlog[src]
			if rng.Bernoulli(rate) {
				q.Push(int32(uniformDst(rng, n, src)))
			}
			// Drain backlog head if the fabric accepts it.
			if q.Len() > 0 && f.TrySend(src, int(q.Peek()), payload, done) {
				q.Pop()
			}
		}
		f.Tick()
	}
	// Drain phase: let packets injected during the window finish (no new
	// sends are counted), so saturated fabrics report their sustainable
	// rate rather than zero.
	for cyc := uint64(0); cyc < window; cyc++ {
		for src := 0; src < n; src++ {
			if q := &backlog[src]; q.Len() > 0 && f.TrySend(src, int(q.Peek()), payload, nil) {
				q.Pop()
			}
		}
		f.Tick()
	}
	PublishEngineStats(f)
	// Saturation: backlog kept growing beyond a small slack.
	stuck := 0
	for i := range backlog {
		stuck += backlog[i].Len()
	}
	return LoadPoint{
		OfferedRate: rate,
		Throughput:  float64(deliveredInWindow) / float64(window) / float64(n),
		MeanLatency: lat.Mean(),
		P99:         lat.Percentile(99),
		Saturated:   uint64(stuck) > uint64(n)*4,
	}
}

// uniformDst draws a destination other than src, uniformly over n nodes.
func uniformDst(rng *sim.RNG, n, src int) int {
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// Sweep measures a fabric across rates, rebuilding it for each point via
// the factory so points are independent.
func Sweep(factory func() Fabric, rates []float64, payload int, warmup, window uint64, seed uint64) []LoadPoint {
	points := make([]LoadPoint, 0, len(rates))
	for i, r := range rates {
		points = append(points, MeasureUniform(factory(), r, payload, warmup, window, seed+uint64(i)))
	}
	return points
}

// Knee returns the offered rate at which mean latency first exceeds
// multiple x the zero-load latency — the "turning point" of Figure 11.
// It returns the last rate if no knee is found.
func Knee(points []LoadPoint, multiple float64) float64 {
	if len(points) == 0 {
		return 0
	}
	base := points[0].MeanLatency
	if base == 0 {
		base = 1
	}
	for _, p := range points {
		if p.Saturated || p.MeanLatency > base*multiple {
			return p.OfferedRate
		}
	}
	return points[len(points)-1].OfferedRate
}
