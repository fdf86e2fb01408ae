package noc

import (
	"fmt"

	"chipletnoc/internal/metrics"
)

// DRMReporter is implemented by bridge devices (RBRG-L1/L2) that can
// report whether they are currently in deadlock-resolution mode.
type DRMReporter interface {
	InDRM() bool
}

// MetricsRegisterer is implemented by devices that expose their own
// instruments (requesters, memory controllers, serving engines and the
// serving orchestrator); EnableMetrics registers each of them.
type MetricsRegisterer interface {
	RegisterMetrics(reg *metrics.Registry)
}

// deflectedTotal sums deflections seen at this ring's interfaces — the
// per-ring share of Network.Deflections.
func (r *Ring) deflectedTotal() uint64 {
	var t uint64
	for _, st := range r.stations {
		for _, ni := range st.ifaces {
			if ni != nil {
				t += ni.Deflected
			}
		}
	}
	return t
}

// etagReserved counts eject-queue entries currently held back by E-tag
// reservations across the ring's interfaces.
func (r *Ring) etagReserved() int {
	n := 0
	for _, st := range r.stations {
		for _, ni := range st.ifaces {
			if ni != nil {
				n += len(ni.reserved)
			}
		}
	}
	return n
}

// itagSlots counts circulating slots currently reserved by an I-tag.
// Physical storage order: counting is position-independent.
func (r *Ring) itagSlots() int {
	n := 0
	for i := range r.cw.slots {
		if r.cw.slots[i].itagOwner != noTag {
			n++
		}
	}
	for i := range r.ccw.slots {
		if r.ccw.slots[i].itagOwner != noTag {
			n++
		}
	}
	return n
}

// EnableMetrics attaches a metrics registry to the whole system: the
// standard NoC probes first, then every device that is a
// MetricsRegisterer, in registration order — deterministic for a given
// build, so series ordering, and therefore exports, are reproducible.
// Call it once, after the topology is fully constructed (all rings,
// bridges and devices exist), so every component is visible; the network
// then drives series sampling from its own Tick at the registry's
// interval.
//
// Everything registered here *reads* simulator state — counters and
// gauges at snapshot time, series at sample boundaries — so enabling
// metrics never changes cycle behaviour: the differential golden tests
// in internal/soc pin an instrumented run bit-identical to a bare one.
// A nil registry leaves the network untouched.
//
// Probes, per the ring-interconnect literature's standard curves:
//
//   - noc.flits.* counters: injected/delivered/dropped (with per-cause
//     breakdown), deflections, hops, rerouted, delivered payload bytes.
//   - noc.deflection_rate series: network-wide deflections per cycle in
//     each sample window.
//   - noc.drm_bridges series: bridges currently in deadlock-resolution
//     mode (DRM residency).
//   - ring<id>.occupancy / .deflection_rate / .etag_reserved /
//     .itag_slots series: per-ring slot occupancy, deflection rate and
//     fairness-tag reservation counts.
//   - bridge.<name>.buffered series: flits held inside each bridge's
//     internal buffers (queue depth).
func (n *Network) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	if n.metrics != nil {
		panic("noc: EnableMetrics called twice")
	}
	n.metrics = reg

	reg.Counter("noc.flits.injected", func() uint64 { return n.InjectedFlits })
	reg.Counter("noc.flits.delivered", func() uint64 { return n.DeliveredFlits })
	reg.Counter("noc.bytes.delivered", func() uint64 { return n.DeliveredBytes })
	reg.Counter("noc.flits.deflections", func() uint64 { return n.Deflections })
	reg.Counter("noc.flits.hops", func() uint64 { return n.TotalHops })
	reg.Counter("noc.flits.rerouted", func() uint64 { return n.ReroutedFlits })
	reg.Counter("noc.drops.total", func() uint64 { return n.DroppedFlits })
	reg.Counter("noc.drops.watchdog", func() uint64 { return n.WatchdogDrops })
	reg.Counter("noc.drops.unroutable", func() uint64 { return n.UnroutableDrops })
	reg.Counter("noc.drops.fault", func() uint64 { return n.FaultDrops })
	reg.Counter("noc.drops.corrupt", func() uint64 { return n.CorruptDrops })
	reg.Gauge("noc.flits.in_flight", func() float64 { return float64(n.InFlight()) })
	reg.Gauge("noc.flits.accounted", func() float64 { return float64(n.AccountedFlits()) })
	reg.Gauge("noc.bridges.failed", func() float64 { return float64(len(n.failed)) })

	interval := reg.Interval()
	reg.Series("noc.deflection_rate", metrics.DeltaRate(func() uint64 { return n.Deflections }, interval))
	reg.Series("noc.drop_rate", metrics.DeltaRate(func() uint64 { return n.DroppedFlits }, interval))
	reg.Series("noc.drm_bridges", func() float64 {
		c := 0
		for _, d := range n.devices {
			if dr, ok := d.(DRMReporter); ok && dr.InDRM() {
				c++
			}
		}
		return float64(c)
	})

	for _, r := range n.rings {
		r := r
		prefix := fmt.Sprintf("ring%d", r.id)
		reg.Series(prefix+".occupancy", func() float64 { return float64(r.occupancy()) })
		reg.Series(prefix+".deflection_rate", metrics.DeltaRate(r.deflectedTotal, interval))
		reg.Series(prefix+".etag_reserved", func() float64 { return float64(r.etagReserved()) })
		reg.Series(prefix+".itag_slots", func() float64 { return float64(r.itagSlots()) })
	}

	for _, d := range n.devices {
		if fb, ok := d.(FlitBufferer); ok {
			fb := fb
			reg.Series("bridge."+d.Name()+".buffered", func() float64 { return float64(fb.BufferedFlits()) })
		}
	}

	for _, d := range n.devices {
		if mr, ok := d.(MetricsRegisterer); ok {
			mr.RegisterMetrics(reg)
		}
	}
}

// Metrics returns the attached registry (nil when metrics are disabled).
func (n *Network) Metrics() *metrics.Registry { return n.metrics }
