package stats

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"chipletnoc/internal/sim"
)

// flatHistogram is the Histogram as it was before its samples moved into
// chunks: one slice that every Add appends to. It is kept verbatim as the
// reference FuzzHistogramMatchesFlat holds the chunked one to — same
// answers, same checkpoint bytes.
type flatHistogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

func (h *flatHistogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

func (h *flatHistogram) Count() int { return len(h.samples) }

func (h *flatHistogram) Grow(n int) { h.samples = slices.Grow(h.samples, n) }

func (h *flatHistogram) Merge(o *flatHistogram) {
	h.samples = append(h.samples, o.samples...)
	h.sum += o.sum
	h.sorted = false
}

func (h *flatHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *flatHistogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

func (h *flatHistogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.samples[rank]
}

func (h *flatHistogram) Max() float64 { return h.Percentile(100) }

func (h *flatHistogram) Min() float64 { return h.Percentile(0) }

func (h *flatHistogram) SnapState(c *sim.Codec) {
	c.F64s(&h.samples)
	c.F64(&h.sum)
	c.Bool(&h.sorted)
}

// saved is a walker's checkpoint bytes, or nil when the save fails.
func saved(walk func(*sim.Codec)) []byte {
	e := sim.NewEncoder()
	c := sim.Saving(e)
	if walk(c); c.Err() != nil {
		return nil
	}
	return e.Data()
}

// histPair is one population held by both implementations.
type histPair struct {
	got  Histogram
	want flatHistogram
}

// check fails unless the two implementations agree on everything a
// caller can observe without a query (which would sort them).
func (p *histPair) check(t *testing.T, step int, name string) {
	t.Helper()
	if g, w := p.got.Count(), p.want.Count(); g != w {
		t.Fatalf("step %d %s: Count %d, flat %d", step, name, g, w)
	}
	if g, w := p.got.Mean(), p.want.Mean(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("step %d %s: Mean %v, flat %v", step, name, g, w)
	}
	if g, w := saved(p.got.SnapState), saved(p.want.SnapState); !bytes.Equal(g, w) {
		t.Fatalf("step %d %s: checkpoint bytes differ (%d vs flat %d)", step, name, len(g), len(w))
	}
}

// runHistScript interprets script as operations on two populations, a
// and b, applied to both implementations, and checks them after each.
// Each operation is an opcode byte and an argument byte.
func runHistScript(t *testing.T, script []byte) {
	const most = 1 << 12 // a population this large takes no more samples
	var a, b histPair
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step]%12, script[step+1]
		if op <= 5 && a.want.Count()+b.want.Count() > most {
			continue
		}
		answer := func(name string, g, w float64) {
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: %s = %v, flat %v", step, name, g, w)
			}
		}
		switch op {
		case 0:
			a.got.Add(float64(arg))
			a.want.Add(float64(arg))
		case 1:
			b.got.Add(float64(arg))
			b.want.Add(float64(arg))
		case 2: // a burst that crosses chunk boundaries
			for i := 0; i < int(arg)*8; i++ {
				v := float64((i*int(arg) + step) % 997)
				a.got.Add(v)
				a.want.Add(v)
			}
		case 3:
			a.got.Merge(&b.got)
			a.want.Merge(&b.want)
		case 4:
			b.got.Merge(&a.got)
			b.want.Merge(&a.want)
		case 5:
			a.got.Merge(&a.got)
			a.want.Merge(&a.want)
		case 6:
			a.got.Grow(int(arg))
			a.want.Grow(int(arg))
		case 7:
			p := float64(arg)/2 - 10 // -10 .. 117.5: both clamps and the ranks between
			answer("a.Percentile", a.got.Percentile(p), a.want.Percentile(p))
		case 8:
			answer("a.Min", a.got.Min(), a.want.Min())
			answer("a.Max", a.got.Max(), a.want.Max())
		case 9:
			answer("b.Percentile", b.got.Percentile(float64(arg)), b.want.Percentile(float64(arg)))
		case 10: // save and load a onto itself
			g, w := saved(a.got.SnapState), saved(a.want.SnapState)
			if !bytes.Equal(g, w) {
				t.Fatalf("step %d: checkpoint bytes differ before load", step)
			}
			if g == nil {
				break
			}
			c := sim.Loading(sim.NewDecoder(g))
			if a.got.SnapState(c); c.Err() != nil {
				t.Fatalf("step %d: load of a saved histogram failed: %v", step, c.Err())
			}
			a.want.SnapState(sim.Loading(sim.NewDecoder(w)))
		case 11: // a sample no checkpoint can carry: saving must fail for both
			if arg == 0 {
				a.got.Add(0.5)
				a.want.Add(0.5)
			}
		}
		a.check(t, step, "a")
		b.check(t, step, "b")
	}
}

// histScripts are FuzzHistogramMatchesFlat's seeds: bursts across chunk
// boundaries, queries between adds, self-merge, grow, save and load.
var histScripts = [][]byte{
	{0, 5, 0, 1, 7, 100, 0, 3, 8, 0, 10, 0, 0, 9, 7, 50},
	{2, 40, 7, 198, 2, 3, 10, 0, 2, 200, 8, 0, 5, 0, 7, 20},
	{1, 4, 1, 9, 3, 0, 5, 0, 9, 100, 4, 0, 6, 255, 0, 7, 3, 0, 10, 0, 8, 0},
	{6, 200, 2, 20, 0, 1, 3, 0, 7, 0, 2, 1, 10, 0, 5, 0, 7, 120, 11, 0, 10, 0},
}

// FuzzHistogramMatchesFlat holds the chunked Histogram to the flat
// reference: after every operation the two agree on count, mean and
// checkpoint bytes, and every query gives the same answer.
func FuzzHistogramMatchesFlat(f *testing.F) {
	for _, s := range histScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runHistScript(t, script)
	})
}
