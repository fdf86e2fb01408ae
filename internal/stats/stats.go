// Package stats provides the measurement instruments every experiment
// uses: counters, latency histograms, windowed bandwidth probes and an
// equilibrium metric, plus fixed-width table rendering for CLI output.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Histogram collects integer samples (typically cycle latencies) and
// answers mean / percentile / max queries. It stores raw samples; our
// experiment populations are small enough (≤ millions) that exactness
// beats bucketing.
//
// Samples land in chunks that never move (DESIGN §6): Add fills the last
// chunk and starts a new one, twice the size up to maxChunk, when it is
// full, so recording n samples allocates about n samples and copies
// none. The first query after new samples compacts them onto flat and
// sorts it in place; flat is sized exactly the first time and at least
// doubles when it grows again, so a histogram queried every sample
// interval stays amortized. Grow and Merge make room in flat, which Add fills
// while no chunk is open.
type Histogram struct {
	flat   []float64   // compacted samples in order; ascending when sorted is set
	chunks [][]float64 // samples added since the last compaction, in order; every chunk but the last is full
	sorted bool
	sum    float64
}

// Chunk sizes in samples: the first chunk after a compaction, and the
// cap the doubling stops at (8 KiB).
const (
	firstChunk = 16
	maxChunk   = 1024
)

// Add records one sample: in the last chunk while it has room, in
// flat's spare capacity while no chunk is open, else in a new chunk
// twice the size of the last one, up to maxChunk.
func (h *Histogram) Add(v float64) {
	h.sorted = false
	h.sum += v
	k := len(h.chunks)
	switch {
	case k > 0 && len(h.chunks[k-1]) < cap(h.chunks[k-1]):
		h.chunks[k-1] = append(h.chunks[k-1], v)
	case k == 0 && len(h.flat) < cap(h.flat):
		h.flat = append(h.flat, v)
	default:
		size := firstChunk
		if k > 0 {
			size = min(2*cap(h.chunks[k-1]), maxChunk)
		}
		c := make([]float64, 1, size)
		c[0] = v
		h.chunks = append(h.chunks, c)
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int {
	n := len(h.flat)
	for _, c := range h.chunks {
		n += len(c)
	}
	return n
}

// compact moves the chunked samples onto the end of flat, in order,
// leaving room for extra more. When flat must grow it grows once, to
// exactly what it needs the first time and by at least doubling after
// that, so repeated compactions stay amortized. (An explicit make rather
// than slices.Grow: the race detector's build allocates that one twice.)
func (h *Histogram) compact(extra int) {
	for _, c := range h.chunks {
		extra += len(c)
	}
	if need := len(h.flat) + extra; need > cap(h.flat) {
		flat := make([]float64, len(h.flat), max(need, 2*cap(h.flat)))
		copy(flat, h.flat)
		h.flat = flat
	}
	for _, c := range h.chunks {
		h.flat = append(h.flat, c...)
	}
	h.chunks = nil
}

// Grow makes room for n more samples, so the next n Adds or Merges
// land without allocating.
func (h *Histogram) Grow(n int) { h.compact(n) }

// Merge folds another histogram's samples into h (o is unchanged) —
// experiments aggregate per-requester latencies into one population.
// Sort state is discarded, so merging sorted or unsorted operands in any
// order yields the same population and identical percentile answers.
func (h *Histogram) Merge(o *Histogram) {
	h.compact(o.Count()) // o may be h: its chunks are compacted here too
	h.flat = append(h.flat, o.flat...)
	for _, c := range o.chunks {
		h.flat = append(h.flat, c...)
	}
	h.sum += o.sum
	h.sorted = false
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

func (h *Histogram) sort() {
	if !h.sorted {
		h.compact(0)
		slices.Sort(h.flat)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank over the sorted samples: the value at index
// ceil(p/100*n)-1, never an interpolation — every answer is an observed
// sample. p <= 0 returns the minimum, p >= 100 the maximum, and an empty
// histogram returns 0 for every p. With an even count this means p=50
// picks the lower of the two middle samples (rank n/2, not their mean).
func (h *Histogram) Percentile(p float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	h.sort()
	if p <= 0 {
		return h.flat[0]
	}
	if p >= 100 {
		return h.flat[len(h.flat)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(h.flat)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.flat[rank]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.Percentile(0) }

// BandwidthProbe accumulates bytes delivered at a point in the network and
// reports both total and windowed throughput. The AI-Processor equilibrium
// experiment (Fig 14) attaches one probe per monitored node and compares
// their windowed series.
type BandwidthProbe struct {
	name        string
	totalBytes  uint64
	window      uint64 // cycles per window
	windowBytes uint64
	series      []float64 // bytes per cycle, one value per closed window
}

// NewBandwidthProbe creates a probe that closes a window every
// windowCycles cycles; windowCycles must be positive.
func NewBandwidthProbe(name string, windowCycles uint64) *BandwidthProbe {
	if windowCycles == 0 {
		panic("stats: zero probe window")
	}
	return &BandwidthProbe{name: name, window: windowCycles}
}

// Name returns the probe label.
func (p *BandwidthProbe) Name() string { return p.name }

// Record adds delivered bytes in the current window.
func (p *BandwidthProbe) Record(bytes uint64) {
	p.totalBytes += bytes
	p.windowBytes += bytes
}

// CloseWindow ends the current measurement window, appending its
// bytes-per-cycle rate to the series.
func (p *BandwidthProbe) CloseWindow() {
	p.series = append(p.series, float64(p.windowBytes)/float64(p.window))
	p.windowBytes = 0
}

// TotalBytes returns all bytes recorded since construction.
func (p *BandwidthProbe) TotalBytes() uint64 { return p.totalBytes }

// Series returns the per-window bytes-per-cycle rates.
func (p *BandwidthProbe) Series() []float64 { return p.series }

// EquilibriumVsPeak quantifies how evenly bandwidth is spread over a set
// of probe series (Fig 14): the fraction of (probe, window) rates at or
// above threshold times the best probe's mean rate. The denominator is
// that stable mean rather than each window's maximum, which with many
// probes and short windows is an upward outlier. This matches the paper's
// reading of Figure 14 — every probe sustains >80% of the maximum
// (sustained) bandwidth, i.e. EquilibriumVsPeak(probes, 0.8) ≈ 1.
//
// Every recorded window counts, an all-zero one included (it scores as a
// miss), and series of unequal length are not truncated. An empty input
// or an all-zero one returns 0.
func EquilibriumVsPeak(series [][]float64, threshold float64) float64 {
	peak := PeakMeanRate(series)
	if peak == 0 {
		return 0
	}
	points, ok := 0, 0
	for _, s := range series {
		for _, v := range s {
			points++
			if v >= threshold*peak {
				ok++
			}
		}
	}
	if points == 0 {
		return 0
	}
	return float64(ok) / float64(points)
}

// PeakMeanRate returns the highest per-probe mean rate.
func PeakMeanRate(series [][]float64) float64 {
	peak := 0.0
	for _, s := range series {
		if len(s) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		if m := sum / float64(len(s)); m > peak {
			peak = m
		}
	}
	return peak
}

// RecoverySummary quantifies throughput degradation and recovery around
// an injected fault, computed over a windowed delivery-rate series.
type RecoverySummary struct {
	// Before is the mean rate of the windows strictly before the fault.
	Before float64
	// Floor is the worst (minimum) rate at or after the fault window —
	// the depth of the degradation dip.
	Floor float64
	// After is the mean rate over the final quarter of the series, the
	// steady state the system settled into.
	After float64
	// Ratio is After/Before: 1.0 means full recovery, 0 a dead system.
	Ratio float64
}

// Recovery summarises a delivery-rate series around a fault injected at
// the start of window faultWindow. With no pre-fault windows (or an
// empty series) the undefined fields stay zero.
func Recovery(series []float64, faultWindow int) RecoverySummary {
	var out RecoverySummary
	if len(series) == 0 {
		return out
	}
	if faultWindow < 0 {
		faultWindow = 0
	}
	if faultWindow > len(series) {
		faultWindow = len(series)
	}
	if faultWindow > 0 {
		sum := 0.0
		for _, v := range series[:faultWindow] {
			sum += v
		}
		out.Before = sum / float64(faultWindow)
	}
	if faultWindow < len(series) {
		out.Floor = math.Inf(1)
		for _, v := range series[faultWindow:] {
			if v < out.Floor {
				out.Floor = v
			}
		}
	} else {
		out.Floor = 0
	}
	tail := len(series) / 4
	if tail < 1 {
		tail = 1
	}
	sum := 0.0
	for _, v := range series[len(series)-tail:] {
		sum += v
	}
	out.After = sum / float64(tail)
	if out.Before > 0 {
		out.Ratio = out.After / out.Before
	}
	return out
}

// Table renders aligned experiment output; every cmd uses it so that
// regenerated tables look like the paper's.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (fields quoted only
// when they contain a comma), for plotting the regenerated figures.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.header)
	for _, r := range t.rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
