// The superstep scheduler: conservative-lookahead epochs for the
// partitioned tick engine. Instead of synchronising every cycle, the
// coordinator computes a conservative horizon k — no partition can
// observe another partition's work for at least k cycles — releases the
// worker pool once, lets every partition free-run k cycles against its
// own state, and pays exactly two barrier crossings per epoch. The
// horizon is the minimum of:
//
//   - the structural lookahead: the smallest link pipeline depth among
//     inter-partition (split) bridges — a flit or credit launched at
//     cycle t >= t0 arrives at t+L >= t0+k, i.e. never inside the epoch;
//   - the user's lookahead cap (SetLookahead; 0 = uncapped);
//   - the cycles remaining in this Run call (checkpoint/run boundary);
//   - the next watchdog sweep and metrics sample boundaries (both run in
//     the serial epoch tail, so the epoch must end exactly on them);
//   - the next cycle any serial device does real work (IdleUntil of a
//     ScheduleIdler; any other serial device pins the horizon to one).
//
// The run/sweep/sample clamps are clampStretch, which the quiescent jump
// of gate.go shares: a jump is a stretch of cycles in which nothing at
// all ticks, bounded the same way.
//
// Side effects that the sequential engine emits mid-cycle — latency
// samples, OnDeliver notifications, trace events — buffer per partition
// with their emission keys and replay in the serial epoch tail in
// exactly the sequential emission order.
package noc

import (
	"sort"

	"chipletnoc/internal/sim"
)

// horizon computes the epoch length starting at cycle t0, bounded by
// remaining cycles in the current Run call. Always >= 1.
func (n *Network) horizon(plan *tickPlan, t0 sim.Cycle, remaining int) int {
	k := plan.structural
	if n.lookahead > 0 && n.lookahead < k {
		k = n.lookahead
	}
	k = n.clampStretch(k, t0, remaining)
	// Serial devices tick once, at the epoch's last cycle; the epoch must
	// therefore end no later than the first cycle any of them acts on.
	for i := range plan.tail.devs {
		iu, ok := plan.tail.devs[i].dev.(ScheduleIdler)
		if !ok {
			return 1 // no fixed schedule: per-cycle (structural is 1 too)
		}
		e := iu.IdleUntil(t0)
		if e < t0 {
			e = t0
		}
		// k <= e-t0+1: the epoch may run up to and including the device's
		// next active cycle. Guard the uint64 distance before converting
		// (IdleUntil returns far-future values when a schedule is spent).
		if d := uint64(e - t0); d < uint64(k) {
			k = int(d) + 1
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// clampStretch limits a stretch of k cycles starting at t0 — an epoch, or
// a quiescent jump — to what the serial cycle tail allows: it ends with
// this Run call at the latest, and a watchdog sweep or metrics sample may
// fall on its last cycle but never inside it.
func (n *Network) clampStretch(k int, t0 sim.Cycle, remaining int) int {
	if remaining < k {
		k = remaining
	}
	// The watchdog sweeps after cycle t when (t+1) % period == 0, in the
	// serial tail; the stretch may end on a sweep cycle but not contain one.
	if n.watchdogBudget > 0 && n.watchdogPeriod > 0 {
		k = clampToBoundary(k, t0, n.watchdogPeriod)
	}
	// Metrics sample on the same post-cycle schedule at their interval.
	if iv := n.metrics.Interval(); iv > 0 {
		k = clampToBoundary(k, t0, iv)
	}
	return k
}

// clampToBoundary limits an epoch starting at t0 so that no cycle before
// its last satisfies (t+1) % period == 0: the first such cycle is at
// offset period-1-t0%period, and the epoch may include it only as its
// final cycle.
func clampToBoundary(k int, t0 sim.Cycle, period uint64) int {
	if off := period - 1 - uint64(t0)%period; off+1 < uint64(k) {
		return int(off + 1)
	}
	return k
}

// runEpoch advances this partition's rings and devices k cycles from t0
// against purely partition-local state. The trace context stamped before
// every ring and device tick keys any events they buffer, so the epoch
// tail can merge all partitions' buffers back into sequential order.
func (p *partition) runEpoch(t0 sim.Cycle, k int) {
	for c := 0; c < k; c++ {
		now := t0 + sim.Cycle(c)
		// The coordinator publishes t0 as the network's tick count, so
		// cycle t0+c is the ring loops' advance number t0+c+1.
		p.tickRings(now, uint64(now)+1)
		p.tickDevices(now)
	}
}

// replayDeliveries re-emits every buffered delivery record — latency
// sample then OnDeliver hook per delivered flit — in (cycle, ring)
// order: rings tick in ascending ID within a cycle and each ring's
// buffer is in emission order, so this is exactly the sequential
// engine's delivery order. Callbacks receive the buffered value copy.
func (n *Network) replayDeliveries(t0 sim.Cycle, k int) {
	if n.latency == nil && n.OnDeliver == nil {
		return
	}
	for c := 0; c < k; c++ {
		at := t0 + sim.Cycle(c)
		for _, r := range n.rings {
			for r.delivPos < len(r.delivBuf) && r.delivBuf[r.delivPos].at == at {
				s := &r.delivBuf[r.delivPos]
				r.delivPos++
				if n.latency != nil {
					n.latency(&s.fl, s.cycles)
				}
				if n.OnDeliver != nil {
					n.OnDeliver(&s.fl, s.at)
				}
			}
		}
	}
	for _, r := range n.rings {
		r.delivBuf = r.delivBuf[:0]
		r.delivPos = 0
	}
}

// replayTraces merges every shard's buffered trace events and records
// them in (cycle, phase, unit) order. The sort is stable and equal keys
// never span shards (a unit's events all buffer on one shard), so
// same-unit events keep their emission order — reproducing exactly the
// sequence the sequential engine would have recorded.
func (n *Network) replayTraces() {
	if n.Tracer == nil {
		return
	}
	buf := n.traceScratch[:0]
	for _, sh := range n.shards {
		buf = append(buf, sh.tbuf...)
		for i := range sh.tbuf {
			sh.tbuf[i] = tracedEvent{}
		}
		sh.tbuf = sh.tbuf[:0]
	}
	if len(buf) == 0 {
		n.traceScratch = buf
		return
	}
	sort.SliceStable(buf, func(i, j int) bool {
		a, b := &buf[i].ctx, &buf[j].ctx
		if a.at != b.at {
			return a.at < b.at
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		return a.unit < b.unit
	})
	for i := range buf {
		n.Tracer.Record(buf[i].ev)
	}
	n.traceScratch = buf[:0]
}

// runPartitioned drives one worker goroutine per partition beyond the
// first (the coordinator ticks partition 0 itself and runs every serial
// section). The pool lives for this call; per-epoch synchronisation is a
// reused adaptive sense-reversing barrier — two crossings per epoch.
func (n *Network) runPartitioned(plan *tickPlan, cycles int) {
	barrier := sim.NewSpinBarrier(len(plan.parts))
	// Epoch command, published to the workers by the release barrier's
	// happens-before edge.
	var (
		epochT0 sim.Cycle
		epochK  int
		quit    bool
	)

	for _, p := range plan.parts[1:] {
		go func(p *partition) {
			var sense uint32
			for {
				barrier.Wait(&sense) // epoch release: (t0, k) published
				if quit {
					return
				}
				p.runEpoch(epochT0, epochK)
				barrier.Wait(&sense) // epoch join
			}
		}(p)
	}

	var sense uint32
	p0 := plan.parts[0]
	for done := 0; done < cycles; {
		if !n.cycleParallelEligible() {
			// Order-sensitive stretch (throttle, failed bridges): the
			// workers stay parked while the coordinator runs the plain
			// sequential body one cycle at a time.
			n.Tick(sim.Cycle(n.ticks))
			done++
			continue
		}
		t0 := sim.Cycle(n.ticks)
		k := n.horizon(plan, t0, cycles-done)
		epochT0, epochK = t0, k
		n.bufferEvents = true
		barrier.Wait(&sense)
		p0.runEpoch(t0, k)
		barrier.Wait(&sense)
		// Serial epoch tail. The clocks first: every partition has
		// executed cycles t0 .. t0+k-1.
		te := t0 + sim.Cycle(k) - 1
		n.now = te
		n.ticks += uint64(k)
		for _, b := range plan.splits {
			b.mergeLink()
		}
		// Deliveries fired during ring ticks, which precede every device
		// tick of their cycle — so they replay before the serial devices
		// run. The serial ticks keep buffering: their trace emissions key
		// under (te, phase 1, registration unit) on shard 0 and merge into
		// the replay at exactly the registration slot the sequential
		// engine would have recorded them.
		n.replayDeliveries(t0, k)
		n.serialTail = true
		plan.tail.tickDevices(te)
		n.serialTail = false
		n.bufferEvents = false
		n.replayTraces()
		n.cycleTail(te)
		n.EpochsRun++
		n.BarrierSyncs += 2
		done += k
		done += n.skipQuiescent(cycles-done, plan.groups...)
	}
	quit = true
	barrier.Wait(&sense)
}
