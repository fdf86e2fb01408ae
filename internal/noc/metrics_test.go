package noc

import (
	"testing"

	"chipletnoc/internal/metrics"
	"chipletnoc/internal/sim"
)

// The probe tests pin the new metrics series against hand-computed
// tiny-ring scenarios: a 4-position full ring whose every cycle can be
// traced on paper. The cycle walk below relies on the documented tick
// order — slots advance, stations eject/inject, devices tick, then the
// registry samples — so a sample at cycle c sees the state after cycle
// c's station logic ran.

// TestRingOccupancySeriesTinyRing injects two flits from position 0 to a
// well-drained sink at position 2 and checks the per-cycle occupancy
// series exactly.
//
// Hand walk (CW travel, 2 hops): cycle 1 the source device queues both
// flits (nothing on the ring yet); cycle 2 the station injects flit 1
// into the just-freed slot at position 0; cycle 3 flit 1 advances and
// flit 2 injects behind it — occupancy 2; cycle 4 flit 1 reaches
// position 2 and ejects — occupancy 1; cycle 5 flit 2 ejects too; the
// ring is empty from then on.
func TestRingOccupancySeriesTinyRing(t *testing.T) {
	net := NewNetwork("tiny")
	ring := net.AddRing(4, true)
	src := newSource(t, net, ring.AddStation(0), "src")
	snk := newSink(t, net, ring.AddStation(2), "snk", 4)
	net.MustFinalize()

	reg := metrics.New(1)
	net.EnableMetrics(reg)

	src.queue(net.NewFlit(src.Node(), snk.Node(), KindData, LineBytes))
	src.queue(net.NewFlit(src.Node(), snk.Node(), KindData, LineBytes))
	runCycles(net, 6)

	snap := reg.Snapshot("tiny", 6)
	want := []float64{0, 1, 2, 1, 0, 0}
	occ := seriesByName(t, snap, "ring0.occupancy")
	if len(occ.Values) != len(want) {
		t.Fatalf("occupancy has %d samples, want %d", len(occ.Values), len(want))
	}
	for i, w := range want {
		if occ.Values[i] != w {
			t.Errorf("occupancy[cycle %d] = %v, want %v (series %v)", occ.Cycles[i], occ.Values[i], w, occ.Values)
		}
	}
	if got := snap.Counters["noc.flits.delivered"]; got != 2 {
		t.Errorf("delivered = %d, want 2", got)
	}
	if got := snap.Counters["noc.flits.deflections"]; got != 0 {
		t.Errorf("deflections = %d, want 0", got)
	}
	// Two flits, two hops each.
	if got := snap.Counters["noc.flits.hops"]; got != 4 {
		t.Errorf("hops = %d, want 4", got)
	}
}

// stuckSink never drains its single-entry eject queue: the first arrival
// fills it, every later arrival deflects.
type stuckSink struct{ Port }

func (s *stuckSink) Tick(now sim.Cycle) {}

// TestDeflectionRateSeriesTinyRing parks a flit in a 1-deep eject queue
// and sends a second one at the same interface: the victim deflects once
// per loop traversal, giving a known deflection rate.
//
// Hand walk: flits inject at cycles 2 and 3 as above. Flit 1 ejects at
// cycle 4 and is never drained, so the queue stays full. Flit 2 arrives
// at position 2 on cycle 5, finds no free entry, and deflects; the loop
// is 4 positions, so it re-arrives (and deflects again) at cycles 9, 13,
// … With a 4-cycle sample interval the cumulative deflection count reads
// 0, 1, 2, 3 at cycles 4, 8, 12, 16: rate 0 in the first window, then
// exactly one deflection per window — 0.25 per cycle.
func TestDeflectionRateSeriesTinyRing(t *testing.T) {
	net := NewNetwork("tiny")
	ring := net.AddRing(4, true)
	src := newSource(t, net, ring.AddStation(0), "src")
	snk := &stuckSink{}
	snk.Port = net.PlugQueued(snk, "snk", ring.AddStation(2), 8, 1)
	node := snk.Node()
	net.MustFinalize()

	reg := metrics.New(4)
	net.EnableMetrics(reg)

	src.queue(net.NewFlit(src.Node(), node, KindData, LineBytes))
	src.queue(net.NewFlit(src.Node(), node, KindData, LineBytes))
	runCycles(net, 16)

	snap := reg.Snapshot("tiny", 16)
	rate := seriesByName(t, snap, "noc.deflection_rate")
	wantCycles := []uint64{4, 8, 12, 16}
	wantRates := []float64{0, 0.25, 0.25, 0.25}
	if len(rate.Values) != len(wantRates) {
		t.Fatalf("deflection_rate has %d samples, want %d (%v)", len(rate.Values), len(wantRates), rate.Values)
	}
	for i := range wantRates {
		if rate.Cycles[i] != wantCycles[i] || rate.Values[i] != wantRates[i] {
			t.Errorf("deflection_rate[%d] = (cycle %d, %v), want (cycle %d, %v)",
				i, rate.Cycles[i], rate.Values[i], wantCycles[i], wantRates[i])
		}
	}
	// The per-ring view must agree with the network-wide one.
	ringRate := seriesByName(t, snap, "ring0.deflection_rate")
	for i := range wantRates {
		if ringRate.Values[i] != wantRates[i] {
			t.Errorf("ring0.deflection_rate[%d] = %v, want %v", i, ringRate.Values[i], wantRates[i])
		}
	}
	if got := snap.Counters["noc.flits.deflections"]; got != 3 {
		t.Errorf("deflections = %d, want 3", got)
	}
	// The victim is registered for an E-tag reservation but the queue is
	// never drained, so no reservation is ever granted.
	etag := seriesByName(t, snap, "ring0.etag_reserved")
	for i, v := range etag.Values {
		if v != 0 {
			t.Errorf("etag_reserved[cycle %d] = %v, want 0", etag.Cycles[i], v)
		}
	}
}

// TestEnableMetricsTwicePanics pins the double-attach guard.
func TestEnableMetricsTwicePanics(t *testing.T) {
	net := NewNetwork("tiny")
	net.AddRing(4, true)
	net.EnableMetrics(metrics.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("second EnableMetrics did not panic")
		}
	}()
	net.EnableMetrics(metrics.New(1))
}

// TestEnableMetricsNilIsInert pins that a nil registry leaves the
// network untouched (the zero-cost-when-disabled contract).
func TestEnableMetricsNilIsInert(t *testing.T) {
	net := NewNetwork("tiny")
	net.AddRing(4, true)
	net.EnableMetrics(nil)
	if net.Metrics() != nil {
		t.Fatal("nil EnableMetrics attached a registry")
	}
}

func seriesByName(t *testing.T, snap *metrics.Snapshot, name string) metrics.SeriesSnapshot {
	t.Helper()
	for _, s := range snap.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q not in snapshot (have %d series)", name, len(snap.Series))
	return metrics.SeriesSnapshot{}
}
