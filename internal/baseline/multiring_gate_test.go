package baseline_test

import (
	"fmt"
	"testing"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/workloads"
)

// tap is what a harness can observe of a fabric: the verdict of every
// TrySend and the latency of every delivery, in the order they happened,
// each stamped with the fabric's cycle.
type tap struct {
	*baseline.MultiRing
	log []tapEvent
}

type tapEvent struct {
	cycle     uint64
	src, dst  int
	delivered bool // else: a TrySend and its verdict
	accepted  bool
	latency   uint64
}

func (t *tap) TrySend(src, dst, payload int, done baseline.DeliverFunc) bool {
	ok := t.MultiRing.TrySend(src, dst, payload, func(latency uint64) {
		t.log = append(t.log, tapEvent{cycle: t.Network().Ticks(), src: src, dst: dst, delivered: true, latency: latency})
		if done != nil {
			done(latency)
		}
	})
	t.log = append(t.log, tapEvent{cycle: t.Network().Ticks(), src: src, dst: dst, accepted: ok})
	return ok
}

// sameSince fails unless both taps logged the same events from index
// from on, and returns the new common length.
func sameSince(t *testing.T, gated, polled *tap, from int) int {
	t.Helper()
	if len(gated.log) != len(polled.log) {
		t.Fatalf("cycle %d: gated ports saw %d events, every-cycle ports %d", gated.Network().Ticks(), len(gated.log), len(polled.log))
	}
	for i := from; i < len(gated.log); i++ {
		if gated.log[i] != polled.log[i] {
			t.Fatalf("event %d differs:\ngated       %+v\nevery-cycle %+v", i, gated.log[i], polled.log[i])
		}
	}
	return len(gated.log)
}

// sameTotals holds the two networks' end-of-run counters equal, and
// checks that the reference is one: it ticked every port every cycle, the
// gated ports ran less often.
func sameTotals(t *testing.T, gated, polled *tap) {
	t.Helper()
	gp, gb := gated.Delivered()
	pp, pb := polled.Delivered()
	gn, pn := gated.Network(), polled.Network()
	if gp != pp || gb != pb || gn.TotalHops != pn.TotalHops || gn.Deflections != pn.Deflections {
		t.Fatalf("gated: %d packets %d bytes %d hops %d deflections; every-cycle: %d %d %d %d",
			gp, gb, gn.TotalHops, gn.Deflections, pp, pb, pn.TotalHops, pn.Deflections)
	}
	for i, b := range gated.Bridges() {
		if got, want := b.Transferred(), polled.Bridges()[i].Transferred(); got != want {
			t.Fatalf("bridge %s transferred %d, with every-cycle ports %d", b.Name(), got, want)
		}
	}
	if err := gn.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	ticks, ports := gated.PortTicks()
	ref, _ := polled.PortTicks()
	if ref != uint64(ports)*polled.Network().Ticks() {
		t.Fatalf("reference ports ticked %d times over %d port-cycles: they are not the every-cycle reference", ref, uint64(ports)*polled.Network().Ticks())
	}
	if ticks == 0 || ticks >= ref {
		t.Fatalf("gated ports ticked %d times, every-cycle ports %d", ticks, ref)
	}
}

// portShare is the gated ports' ticks as a share of their port-cycles.
func portShare(m *tap) float64 {
	ticks, ports := m.PortTicks()
	return float64(ticks) / float64(uint64(ports)*m.Network().Ticks())
}

// multiRingCases are the two shapes the adapter builds, each with the
// core and memory endpoints a MemSystem puts on it; the chiplet one is
// the Quick-scale system of the paper artifacts.
var multiRingCases = []struct {
	name     string
	build    func() *baseline.MultiRing
	cores    []int
	memories []int
}{
	{"ring-16", func() *baseline.MultiRing { return baseline.NewMultiRing(16, true) },
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int{12, 13, 14, 15}},
	{"chiplets-2x10", func() *baseline.MultiRing { return baseline.NewMultiRingChiplets(2, 10) },
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17}, []int{8, 9, 18, 19}},
}

// TestGatedPortsMatchEveryCyclePorts: a port that sleeps until something
// is ejected for it is the port that drains its eject queue every cycle.
// Under MemSystem at three loads the two are stepped side by side and
// must show the harness the same send verdicts and the same callbacks
// with the same latencies in the same order, every cycle; the gated
// ports run on at most a tenth of their port-cycles.
func TestGatedPortsMatchEveryCyclePorts(t *testing.T) {
	const cycles = 15000
	for _, c := range multiRingCases {
		typical := 0.66 * 8.5 * float64(len(c.memories)) / 64 / float64(len(c.cores))
		for _, load := range []struct {
			name string
			rest workloads.CoreLoad // every core but the probe, core 0
		}{
			{"light", workloads.CoreLoad{Rate: 0, Outstanding: 1}},
			{"knee", workloads.CoreLoad{Rate: typical, Outstanding: 16, ReadFraction: 0.7}},
			{"saturated", workloads.CoreLoad{Rate: 1, Outstanding: 16, ReadFraction: 0.5}},
		} {
			c, load := c, load
			t.Run(c.name+"/"+load.name, func(t *testing.T) {
				gated := &tap{MultiRing: c.build()}
				polled := &tap{MultiRing: baseline.WithEveryCyclePorts(c.build)}
				system := func(f baseline.Fabric) *workloads.MemSystem {
					loads := make([]workloads.CoreLoad, len(c.cores))
					for i := range loads {
						loads[i] = load.rest
					}
					loads[0] = workloads.CoreLoad{Rate: 1, Outstanding: 1, ReadFraction: 1}
					return workloads.NewMemSystem(workloads.MemSystemConfig{
						Fabric: f, CoreNodes: c.cores, MemNodes: c.memories,
						MemLatency: 90, MemBytesPerCycle: 8.5, LineBytes: 64,
					}, loads, 0xF12)
				}
				a, b := system(gated), system(polled)
				seen := 0
				for cyc := 0; cyc < cycles; cyc++ {
					a.Step()
					b.Step()
					seen = sameSince(t, gated, polled, seen)
					if cyc%997 == 0 {
						if err := gated.Network().CheckConservation(); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
					}
				}
				if seen == 0 || a.TotalBytes() == 0 || a.TotalBytes() != b.TotalBytes() {
					t.Fatalf("%d events, %d and %d bytes moved", seen, a.TotalBytes(), b.TotalBytes())
				}
				sameTotals(t, gated, polled)
				if share := portShare(gated); share > 0.10 {
					t.Errorf("gated ports ran on %.1f%% of their port-cycles, want at most 10%%", 100*share)
				}
			})
		}
	}
}

// TestGatedPortsMatchUnderUniformSweep: the same through MeasureUniform,
// from a near-idle point to one far past saturation. The whole run is one
// call, so the two event logs are compared when it returns; the cycle
// stamps make that the same statement. The tenth-of-port-cycles ceiling
// holds below the knee only: past it every port takes a packet every few
// cycles, and a pop from its full inject queue wakes it as well.
func TestGatedPortsMatchUnderUniformSweep(t *testing.T) {
	for _, c := range multiRingCases {
		for i, rate := range []float64{0.02, 0.08, 0.3, 0.9} {
			c, rate, seed := c, rate, uint64(0xFAB+i)
			t.Run(fmt.Sprintf("%s/rate-%v", c.name, rate), func(t *testing.T) {
				gated := &tap{MultiRing: c.build()}
				polled := &tap{MultiRing: baseline.WithEveryCyclePorts(c.build)}
				pg := baseline.MeasureUniform(gated, rate, 64, 300, 1500, seed)
				pp := baseline.MeasureUniform(polled, rate, 64, 300, 1500, seed)
				if pg != pp {
					t.Fatalf("load points differ:\ngated       %+v\nevery-cycle %+v", pg, pp)
				}
				if sameSince(t, gated, polled, 0) == 0 {
					t.Fatal("nothing was sent")
				}
				sameTotals(t, gated, polled)
				if share := portShare(gated); rate < 0.1 && share > 0.10 {
					t.Errorf("gated ports ran on %.1f%% of their port-cycles at rate %v, want at most 10%%", 100*share, rate)
				}
			})
		}
	}
}
