// The host orchestrator: a deterministic device that admits open-loop
// arrivals, streams batches under low/high watermarks, walks each
// batch's command DAG, and records per-request end-to-end latency into a
// streaming quantile sketch.
//
// It is registered last, so each cycle it ticks after every engine.
// Engines communicate with it only through their own input queues (which
// it writes) and done lists (which it drains), never the other way round.
//
// It owns no network node, so it is not a noc.NodeOwner and cannot be
// woken through an interface; it implements noc.IdleUntiler and is asked
// at its slot every cycle instead: between arrivals, completions and
// compute retirements its Tick changes nothing but the watermark-stall
// count, which it settles later (StallCycles), and the tick engine skips
// it. The bound it returns is good at its own slot, after every engine
// has run this cycle, and across a quiescent stretch, when no engine can
// run at all.
package serving

import (
	"fmt"
	"slices"

	"chipletnoc/internal/config"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/trace"
)

// Orchestrator drives one serving run at one offered load.
type Orchestrator struct {
	name     string
	spec     *config.ServingSpec
	net      *noc.Network
	engines  []*Engine
	arr      *arrivalProcess
	routeRNG *sim.RNG

	pending   sim.FIFO[request]
	computing []*command
	live      []*batch // the batches in flight, in admission order
	filling   bool     // between a low-watermark crossing and reaching high
	stalled   bool     // watermark backpressure state, for trace edges
	nextHome  int
	dag       dag // where batches and their command DAGs come from

	// Aggregates for the sweep row.
	Admitted  uint64
	Completed uint64
	// stallCycles counts the watermark-stall cycles before lastTick, the
	// cycle of the orchestrator's latest tick. That cycle's own stall and
	// those of the cycles it has slept through since are counted when read
	// (stalledBefore), so a second tick in one cycle counts nothing twice.
	stallCycles uint64
	lastTick    sim.Cycle
	// Sketch summarizes per-request end-to-end latency (arrival to
	// batch completion, in cycles).
	Sketch stats.QuantileSketch
	// streamDigest folds every (completion index, latency) pair in
	// completion order — the golden fingerprint of the whole run.
	streamDigest uint64
}

// newOrchestrator wires the orchestrator; the caller registers it as
// the network's LAST device so it ticks after every engine.
func newOrchestrator(spec *config.ServingSpec, net *noc.Network, engines []*Engine, load float64, rng *sim.RNG) *Orchestrator {
	return &Orchestrator{
		name:         "host.orch",
		spec:         spec,
		net:          net,
		engines:      engines,
		arr:          newArrivalProcess(spec, load, rng.Derive(0xA221)),
		routeRNG:     rng.Derive(0x40E),
		streamDigest: sim.FNVOffset,
	}
}

// Name implements noc.Device.
func (o *Orchestrator) Name() string { return o.name }

// IdleUntil implements noc.IdleUntiler: Tick(now) does nothing but count
// a stall cycle unless an engine finished a transfer, a compute phase
// retires, a request arrives or the tap opens. Requests still pending
// after a tick wait on a closed tap (not filling, batches in flight above
// the low watermark) and have marked the stall; each cycle slept through
// in that state is a stall cycle, which StallCycles and the next Tick
// count. The next thing to happen is the earlier of the next arrival and
// the earliest compute retirement. See the file comment for how far the
// bound can be trusted.
func (o *Orchestrator) IdleUntil(now sim.Cycle) sim.Cycle {
	waiting := o.pending.Len() > 0
	if o.stalled != waiting || (waiting && o.filling) || (len(o.live) <= o.spec.LowWatermark && !o.filling) {
		return now
	}
	for _, e := range o.engines {
		if len(e.done) > 0 {
			return now
		}
	}
	w := o.arr.nextAt()
	for _, c := range o.computing {
		if c.readyAt < w {
			w = c.readyAt
		}
	}
	if w < now {
		return now
	}
	return w
}

// Tick implements noc.Device. Order within a cycle: finish transfers
// engines completed this cycle, retire compute, admit arrivals, stream
// batches, release newly-ready commands. Every step iterates fixed
// slices in fixed order — nothing here may observe map order or wall
// clocks.
func (o *Orchestrator) Tick(now sim.Cycle) {
	o.stallCycles += o.stalledBefore(now)
	o.lastTick = now
	// 1. Transfer completions, in die order then engine-completion order.
	for _, e := range o.engines {
		for _, c := range e.done {
			if c.compute > 0 {
				c.readyAt = now + sim.Cycle(c.compute)
				o.computing = append(o.computing, c)
			} else {
				o.finish(c, now)
			}
		}
		e.done = e.done[:0]
	}
	// 2. Compute retirements (in-place filter keeps insertion order).
	live := o.computing[:0]
	for _, c := range o.computing {
		if c.readyAt <= now {
			o.finish(c, now)
		} else {
			live = append(live, c)
		}
	}
	o.computing = live
	// 3. Open-loop arrivals: admitted by cycle, never by completion.
	for n := o.arr.take(now); n > 0; n-- {
		o.pending.Push(request{arrival: now})
		o.Admitted++
	}
	// 4. Watermark-governed batch streaming: crossing the low watermark
	// opens the tap; it closes at the high watermark (double buffering
	// at the default 1/2).
	if len(o.live) <= o.spec.LowWatermark {
		o.filling = true
	}
	for o.filling && o.pending.Len() > 0 {
		if len(o.live) >= o.spec.HighWatermark {
			o.filling = false
			break
		}
		o.admitBatch(now)
	}
	o.noteStall(now, o.pending.Len() > 0)
}

// noteStall records whether the watermark holds requests back this
// cycle — the stall counter reads it — and emits trace edges when that
// starts or stops; the edge's detail is formatted only for an attached
// tracer.
func (o *Orchestrator) noteStall(now sim.Cycle, stalled bool) {
	if stalled != o.stalled {
		o.stalled = stalled
		if o.net.Tracer == nil {
			return
		}
		kind := "ends"
		if stalled {
			kind = "begins"
		}
		o.net.Trace(trace.Stall, 0, o.name,
			fmt.Sprintf("watermark stall %s: %d pending, %d batches in flight", kind, o.pending.Len(), len(o.live)))
	}
}

// admitBatch forms one batch from the head of the pending queue (a
// partial batch if fewer than Batch requests wait — open-loop serving
// does not hold a lone request hostage for batchmates), expands its
// DAG and issues the entry commands.
func (o *Orchestrator) admitBatch(now sim.Cycle) {
	b := o.dag.newBatch()
	for n := min(o.spec.Batch, o.pending.Len()); n > 0; n-- {
		b.reqs = append(b.reqs, o.pending.Pop())
	}
	o.live = append(o.live, b)
	o.dag.expandBatch(o.spec, b, o.nextHome, o.routeRNG)
	o.nextHome = (o.nextHome + 1) % len(o.engines)
	for _, c := range b.cmds {
		if c.deps == 0 {
			o.engines[c.die].enqueue(c)
		}
	}
	if b.remaining == 0 {
		// A spec with zero layers completes instantly.
		o.completeBatch(b, now)
	}
}

// finish retires one command and releases its dependents.
func (o *Orchestrator) finish(c *command, now sim.Cycle) {
	for _, out := range c.outs {
		if out.deps--; out.deps == 0 {
			o.engines[out.die].enqueue(out)
		}
	}
	if c.b.remaining--; c.b.remaining == 0 {
		o.completeBatch(c.b, now)
	}
}

// completeBatch records every rider's end-to-end latency, folds the
// completion stream into the golden digest and recycles the batch: every
// command of its DAG has finished, so nothing references them any more.
func (o *Orchestrator) completeBatch(b *batch, now sim.Cycle) {
	for _, r := range b.reqs {
		lat := uint64(now - r.arrival)
		o.Sketch.Observe(lat)
		o.streamDigest = sim.FNV1aFoldU64(sim.FNV1aFoldU64(o.streamDigest, o.Completed), lat)
		o.Completed++
	}
	i := slices.Index(o.live, b)
	o.live = slices.Delete(o.live, i, i+1)
	o.dag.release(b)
}

// stalledBefore returns the stall cycles from lastTick up to end not yet
// counted: the stall state a tick leaves holds until the next tick, so
// they are all stall cycles or none are.
func (o *Orchestrator) stalledBefore(end sim.Cycle) uint64 {
	if !o.stalled || end <= o.lastTick {
		return 0
	}
	return uint64(end - o.lastTick)
}

// StallCycles counts the cycles run so far in which admitted requests
// waited only on the watermark (in-flight batches above the refill
// trigger), the ones slept through included.
func (o *Orchestrator) StallCycles() uint64 {
	return o.stallCycles + o.stalledBefore(sim.Cycle(o.net.Ticks()))
}

// Backlog is the open-loop debt at the end of a run: requests admitted
// but not completed (queued, batched or mid-DAG). A saturated load
// shows up here before the percentiles can even see it.
func (o *Orchestrator) Backlog() uint64 { return o.Admitted - o.Completed }

// StreamDigest returns the FNV-1a fold of the completion stream —
// byte-identical runs produce equal digests, and the golden tests pin
// them.
func (o *Orchestrator) StreamDigest() uint64 { return o.streamDigest }

// RegisterMetrics exposes the orchestrator's queue depths, watermark
// stalls and latency summary under "serving.host.*".
func (o *Orchestrator) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	const p = "serving.host"
	reg.Counter(p+".admitted", func() uint64 { return o.Admitted })
	reg.Counter(p+".completed", func() uint64 { return o.Completed })
	reg.Counter(p+".stall_cycles", o.StallCycles)
	reg.Series(p+".pending_depth", func() float64 { return float64(o.pending.Len()) })
	reg.Series(p+".active_batches", func() float64 { return float64(len(o.live)) })
	reg.Gauge(p+".latency_p50", func() float64 { return o.Sketch.Quantile(0.50) })
	reg.Gauge(p+".latency_p99", func() float64 { return o.Sketch.Quantile(0.99) })
}
