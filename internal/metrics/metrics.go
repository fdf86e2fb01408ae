// Package metrics provides the simulator's observability registry: a
// deterministic, pull-based collection of typed counters, gauges and
// cycle-sampled series that costs nothing when no registry is attached.
//
// The design mirrors the hardware counters of the paper's RTL emulator:
// the simulation's hot paths keep their plain integer fields, and a
// Registry merely *reads* them — counters and gauges at snapshot time,
// series at a fixed cycle interval. Observation therefore never perturbs
// simulated behaviour: an instrumented fixed-seed run is bit-identical
// to an uninstrumented one (pinned by the differential tests in
// internal/soc), and a nil *Registry makes every method a no-op so call
// sites need no guards.
//
// Determinism: instruments sample in registration order, snapshots render
// names in sorted order, and nothing in the package consults wall-clock
// time or global RNG state. Two snapshots of the same run are therefore
// byte-identical.
package metrics

import "fmt"

// counter is a named monotonic value read on demand.
type counter struct {
	name string
	read func() uint64
}

// gauge is a named instantaneous value read on demand.
type gauge struct {
	name string
	read func() float64
}

// Series is a named value sampled every registry interval, accumulating
// a (cycle, value) trajectory — the per-ring occupancy and deflection
// curves of the hierarchical-ring literature come out of these.
type Series struct {
	name   string
	read   func() float64
	cycles []uint64
	values []float64
}

// Registry holds named instruments and drives series sampling at a fixed
// cycle interval. The zero value is unusable; construct with New. A nil
// *Registry is valid everywhere and free: every method no-ops, which is
// how "metrics disabled" is spelled throughout the simulator.
type Registry struct {
	interval uint64
	names    map[string]struct{}
	counters []counter
	gauges   []gauge
	series   []*Series
}

// New creates a registry sampling series every interval cycles.
func New(interval uint64) *Registry {
	if interval == 0 {
		panic("metrics: sample interval must be positive")
	}
	return &Registry{interval: interval, names: make(map[string]struct{})}
}

// Enabled reports whether the registry collects anything (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Interval returns the series sample interval in cycles (0 for nil).
func (r *Registry) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// register claims a name; duplicate or empty names are wiring bugs.
func (r *Registry) register(name string) {
	if name == "" {
		panic("metrics: instrument needs a name")
	}
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.names[name] = struct{}{}
}

// Counter registers a monotonic counter read at snapshot time. The read
// function must be cheap and side-effect free on simulated state.
func (r *Registry) Counter(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.register(name)
	r.counters = append(r.counters, counter{name: name, read: read})
}

// Gauge registers an instantaneous value read at snapshot time.
func (r *Registry) Gauge(name string, read func() float64) {
	if r == nil {
		return
	}
	r.register(name)
	r.gauges = append(r.gauges, gauge{name: name, read: read})
}

// Series registers a value sampled every interval cycles. Register all
// series before the first sample so every series has the same length.
func (r *Registry) Series(name string, read func() float64) {
	if r == nil {
		return
	}
	r.register(name)
	r.series = append(r.series, &Series{name: name, read: read})
}

// TickSample samples every series when cycle lands on the interval; the
// component driving simulated time (noc.Network) calls it once per cycle.
func (r *Registry) TickSample(cycle uint64) {
	if r == nil || cycle == 0 || cycle%r.interval != 0 {
		return
	}
	r.Sample(cycle)
}

// Sample unconditionally records one sample of every series at cycle.
func (r *Registry) Sample(cycle uint64) {
	if r == nil {
		return
	}
	for _, s := range r.series {
		s.cycles = append(s.cycles, cycle)
		s.values = append(s.values, s.read())
	}
}

// DeltaRate adapts a monotonic counter into a per-cycle rate series
// sampler: each sample reports the counter's growth since the previous
// sample divided by interval. The first sample covers cycles [0,
// interval). Deflection-rate and drop-rate curves use this.
func DeltaRate(read func() uint64, interval uint64) func() float64 {
	if interval == 0 {
		panic("metrics: DeltaRate interval must be positive")
	}
	var prev uint64
	return func() float64 {
		cur := read()
		d := cur - prev
		prev = cur
		return float64(d) / float64(interval)
	}
}
