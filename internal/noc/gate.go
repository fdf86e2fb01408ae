// Activity gating: a component that would do nothing is not visited.
//
// Below saturation most rings carry nothing and most devices wait for a
// reply most cycles. The two loops here — the only ring loop and the only
// device loop the tick engine has — skip them:
//
//   - A ring whose loops hold no flit and whose interfaces queue none is
//     idle (Ring.idle): advancing it moves nothing and every station tick
//     returns at its first test. It is skipped, its clock is still
//     stamped, and its rotation catches up in one head update (Ring.sync)
//     the next cycle it is busy or observed.
//   - A station of a busy ring is visited only on a cycle in which
//     something can happen there — a flit gets off, a head can board or
//     arm its I-tag, the station is stalled (Ring.tick); a flit only
//     passing costs nothing, and the defeats a blocked head would have
//     counted meanwhile are credited at the next visit
//     (CrossStation.settle).
//   - A device that implements IdleUntiler is skipped while it says so.
//     Devices anchored at a node sleep on wake words, one per interface of
//     their node; the loop stores IdleUntil(now+1) after each Tick, and an
//     ejection into an interface, NodeInterface.Wake or any fault operation
//     lowers the word again. Node-less devices are asked IdleUntil(now)
//     every cycle.
//   - When every ring is idle and every device sleeps, Run jumps the
//     clock to the earliest wake (skipQuiescent), clamped so that a
//     watchdog sweep or metrics sample falls on the landing cycle, never
//     inside the jump (clampStretch).
//
// Nothing simulated changes: the words and counts are derived state, never
// serialized, and Network.forceAwake (tests only) turns all of it off to
// give the differential suites their reference engine. There is no other
// engine: DESIGN.md §4 records why the partitioned one was deleted.
package noc

import (
	"sync"

	"chipletnoc/internal/sim"
)

// NodeOwner is implemented by devices anchored at a single network node
// (requesters, memory and coherence controllers, ring bridges). The wake
// table is built from it: such a device sleeps on its node's interfaces.
type NodeOwner interface {
	Node() NodeID
}

// IdleUntiler is implemented by devices that can tell when their Tick is
// a no-op. IdleUntil(now) > now promises that Tick(now) would change
// nothing — no field of the device, no flit sent, received or released,
// no trace event — and that the same holds for every later cycle before
// the returned one unless the device is handed work first: a flit ejected
// into one of its interfaces, NodeInterface.Wake from a device that
// queued work on it directly, or a fault operation. A device with
// nothing to wait for returns the far future; one with work returns now.
//
// The tick engine uses the promise in two ways. A device that is also a
// NodeOwner gets a wake cycle per interface: it is skipped while every
// one lies in the future, the network stores IdleUntil(now+1) after each
// Tick and zeroes the wake on ejection or Wake. A device with no node
// (the fault injector, the serving orchestrator) cannot be woken that
// way, so it is asked IdleUntil(now) at its registration slot every
// cycle instead. When every ring is idle and every device's answer lies
// in the future, Run jumps the clock to the earliest one.
type IdleUntiler interface {
	IdleUntil(now sim.Cycle) sim.Cycle
}

// Never is what IdleUntil returns when the device has nothing to wait
// for: it stays idle until it is handed work.
const Never = sim.Cycle(^uint64(0))

// devGate is one device and how it is gated. idle == nil: it ticks every
// cycle. lo < hi: it sleeps on wake words [lo, hi) and is awake when any
// of them has come. lo == hi: it has no node to be woken through and is
// asked every cycle.
type devGate struct {
	dev    Device
	idle   IdleUntiler
	lo, hi int32
}

// wakeAt returns the cycle a device with an idle contract next wants to
// tick: now or earlier when it is awake. Small enough to inline into the
// device loop; the uncommon shapes go through wakeAtSlow.
func (g *devGate) wakeAt(words []sim.Cycle, now sim.Cycle) sim.Cycle {
	if g.hi-g.lo == 1 {
		return words[g.lo]
	}
	return g.wakeAtSlow(words, now)
}

func (g *devGate) wakeAtSlow(words []sim.Cycle, now sim.Cycle) sim.Cycle {
	if g.lo == g.hi {
		return g.idle.IdleUntil(now)
	}
	w := words[g.lo]
	for _, o := range words[g.lo+1 : g.hi] {
		if o < w {
			w = o
		}
	}
	return w
}

// bindGates lays out the wake table for the current device list and
// gates every device over it. Words are handed out in registration
// order, a NodeOwner device taking one per interface of its node, so a
// device's words are adjacent; interfaces no device owns keep a word of
// their own so NodeInterface.wake is never nil. A node claimed by an
// earlier device is not shared: the later device is polled. Everything
// starts awake.
func (n *Network) bindGates() {
	for _, info := range n.nodes {
		for _, ni := range info.ifaces {
			ni.wake = nil
		}
	}
	var order []*NodeInterface // order[w] owns word w
	take := func(ni *NodeInterface) {
		ni.wake = &ni.unbound // claimed; pointed into the table below
		order = append(order, ni)
	}
	n.devs = n.devs[:0]
	for _, d := range n.devices {
		g := devGate{dev: d}
		g.idle, _ = d.(IdleUntiler)
		if o, ok := d.(NodeOwner); ok {
			if ifaces := n.nodes[o.Node()].ifaces; len(ifaces) > 0 && ifaces[0].wake == nil {
				g.lo = int32(len(order))
				for _, ni := range ifaces {
					take(ni)
				}
				g.hi = int32(len(order))
			}
		}
		n.devs = append(n.devs, g)
	}
	for _, info := range n.nodes {
		for _, ni := range info.ifaces {
			if ni.wake == nil {
				take(ni)
			}
		}
	}
	n.wake = make([]sim.Cycle, len(order))
	for w, ni := range order {
		ni.wake = &n.wake[w]
	}
}

// wakeAll makes every device tick at its next slot: fault operations,
// throttle changes and checkpoint restores change what devices would see
// without going through an interface.
func (n *Network) wakeAll() {
	for i := range n.wake {
		n.wake[i] = 0
	}
}

// syncRings catches every ring's rotation up with the network's tick
// count — the one point every reader of slot positions outside a ring's
// own tick goes through first.
func (n *Network) syncRings() {
	for _, r := range n.rings {
		r.sync(n.ticks)
	}
}

// tickRings runs one cycle of the rings: advance then stations, ring by
// ring (a ring's tick touches only its own slots and interfaces, so
// per-ring order equals the phase order), skipping idle rings. The
// cycle's advance number is the network's tick count, this cycle counted.
func (n *Network) tickRings(now sim.Cycle) {
	force := n.forceAwake
	turn := n.ticks
	rings, stations := uint64(0), 0
	n.sweeping = true
	for _, r := range n.rings {
		r.now = now
		if r.idle() && !force {
			rings++
			stations += len(r.stations)
			continue
		}
		r.sync(turn - 1)
		r.advance()
		r.tick(now)
	}
	n.sweeping = false
	n.RingTicksSkipped += rings
	n.StationTicksSkipped += uint64(stations)
}

// sweptThrough returns the last tick whose station phase is over for st:
// the current one, unless tickRings is running and has not yet come past
// st. Ring.tick names its ring and Ring.visit moves sweepPos to each
// station it sees, so a station between two visits counts as passed once
// the later one has begun, and a ring skipped as idle once a later ring's
// tick has.
func (n *Network) sweptThrough(st *CrossStation) uint64 {
	if n.sweeping && (st.ring.id > n.sweepRing || st.ring.id == n.sweepRing && st.pos >= n.sweepPos) {
		return n.ticks - 1
	}
	return n.ticks
}

// settleStations brings every interface's lazily counted defeats up to
// date, for readers of all of them at once (checkpoint, reports, checks).
func (n *Network) settleStations() {
	for _, r := range n.rings {
		for _, st := range r.stations {
			st.settleNow()
		}
	}
}

// tickDevices runs one cycle of the devices in registration order,
// skipping those asleep, and leaves in nextWake the earliest cycle any of
// them asked for.
func (n *Network) tickDevices(now sim.Cycle) {
	words := n.wake
	force := n.forceAwake
	next := Never
	skipped := uint64(0)
	for i := range n.devs {
		g := &n.devs[i]
		if g.idle == nil || force {
			g.dev.Tick(now)
			next = now + 1
			continue
		}
		if w := g.wakeAt(words, now); w > now {
			if w < next {
				next = w
			}
			skipped++
			continue
		}
		g.dev.Tick(now)
		w := now + 1
		if g.lo < g.hi {
			// Going to sleep is the only store: a device that stays awake
			// leaves its (already past) words alone.
			if w = g.idle.IdleUntil(now + 1); w > now+1 {
				for j := g.lo; j < g.hi; j++ {
					words[j] = w
				}
			}
		}
		if w < next {
			next = w
		}
	}
	n.nextWake = next
	n.DeviceTicksSkipped += skipped
}

// skipQuiescent jumps the clock over the cycles in which nothing at all
// would tick and returns how many it skipped (0 when anything is busy).
// The test is cheap when the network is busy — the device loop saw a
// device that wants the next cycle — and otherwise O(rings + devices):
// every ring idle, every wake word and every polled device in the future.
// The landing cycle runs the cycle tail, so a watchdog sweep or metrics
// sample due on it fires; clampStretch keeps such a boundary from falling
// inside the jump. A throttle controller samples its window every cycle,
// so its presence rules jumps out.
func (n *Network) skipQuiescent(remaining int) int {
	if remaining <= 0 || n.throttle != nil || n.forceAwake {
		return 0
	}
	t0 := sim.Cycle(n.ticks)
	if n.nextWake <= t0 {
		return 0
	}
	for _, r := range n.rings {
		if !r.idle() {
			return 0
		}
	}
	wake := Never
	for i := range n.devs {
		d := &n.devs[i]
		if d.idle == nil {
			return 0
		}
		w := d.wakeAt(n.wake, t0)
		if w <= t0 {
			return 0
		}
		if w < wake {
			wake = w
		}
	}
	k := remaining
	if d := uint64(wake - t0); d < uint64(k) {
		k = int(d)
	}
	k = n.clampStretch(k, t0)
	n.ticks += uint64(k)
	n.now = t0 + sim.Cycle(k) - 1
	for _, r := range n.rings {
		r.now = n.now
	}
	n.SkippedCycles += uint64(k)
	n.RingTicksSkipped += uint64(k * len(n.rings))
	n.StationTicksSkipped += uint64(k) * n.stationCount()
	n.DeviceTicksSkipped += uint64(k * len(n.devs))
	n.cycleTail(n.now)
	return k
}

// clampStretch limits a quiescent jump of k cycles starting at t0 to what
// the cycle tail allows: a watchdog sweep or metrics sample may fall on
// its last cycle but never inside it.
func (n *Network) clampStretch(k int, t0 sim.Cycle) int {
	// The watchdog sweeps after cycle t when (t+1) % period == 0.
	if n.watchdogBudget > 0 && n.watchdogPeriod > 0 {
		k = clampToBoundary(k, t0, n.watchdogPeriod)
	}
	// Metrics sample on the same post-cycle schedule at their interval.
	if iv := n.metrics.Interval(); iv > 0 {
		k = clampToBoundary(k, t0, iv)
	}
	return k
}

// clampToBoundary limits a stretch starting at t0 so that no cycle before
// its last satisfies (t+1) % period == 0: the first such cycle is at
// offset period-1-t0%period, and the stretch may include it only as its
// final cycle.
func clampToBoundary(k int, t0 sim.Cycle, period uint64) int {
	if off := period - 1 - uint64(t0)%period; off+1 < uint64(k) {
		return int(off + 1)
	}
	return k
}

// Run advances the network the given number of cycles: Tick, then a jump
// over whatever quiescent stretch follows. Results are bit-identical to
// calling Tick in a loop.
func (n *Network) Run(cycles int) {
	if cycles <= 0 {
		return
	}
	if !n.finalized {
		panic("noc: Run before Finalize")
	}
	defer n.noteRun(n.engineStats())
	for done := 0; done < cycles; {
		n.Tick(sim.Cycle(n.ticks))
		done++
		done += n.skipQuiescent(cycles - done)
	}
}

// EngineStats says how the tick engine spent a stretch of simulated
// time: of Cycles cycles, SkippedCycles were jumped as quiescent; of the
// RingTicks ring-cycles, StationTicks station-cycles and DeviceTicks
// device-cycles they contained, the *Skipped ones were not executed
// (jumped cycles included; a skipped ring's stations count as skipped
// station ticks). Host-side diagnostics: nothing here is simulated state.
type EngineStats struct {
	Cycles, SkippedCycles             uint64
	RingTicks, RingTicksSkipped       uint64
	StationTicks, StationTicksSkipped uint64
	DeviceTicks, DeviceTicksSkipped   uint64
}

// fields lists the counters once, for the arithmetic below.
func (s *EngineStats) fields() [8]*uint64 {
	return [8]*uint64{&s.Cycles, &s.SkippedCycles, &s.RingTicks, &s.RingTicksSkipped,
		&s.StationTicks, &s.StationTicksSkipped, &s.DeviceTicks, &s.DeviceTicksSkipped}
}

// Sub returns the stretch between an earlier reading b and s.
func (s EngineStats) Sub(b EngineStats) EngineStats {
	for i, f := range s.fields() {
		*f -= *b.fields()[i]
	}
	return s
}

// stationCount returns the number of cross stations network-wide.
func (n *Network) stationCount() uint64 {
	total := 0
	for _, r := range n.rings {
		total += len(r.stations)
	}
	return uint64(total)
}

// engineStats reads this network's counters. Ring, station and device
// totals use the current counts, which do not change once a network is
// running.
func (n *Network) engineStats() EngineStats {
	return EngineStats{
		Cycles: n.ticks, SkippedCycles: n.SkippedCycles,
		RingTicks: n.ticks * uint64(len(n.rings)), RingTicksSkipped: n.RingTicksSkipped,
		StationTicks: n.ticks * n.stationCount(), StationTicksSkipped: n.StationTicksSkipped,
		DeviceTicks: n.ticks * uint64(len(n.devices)), DeviceTicksSkipped: n.DeviceTicksSkipped,
	}
}

// engineTotals sums what every Run call of the process did, so a caller
// that never sees the networks (cmd/experiments -timing, around a whole
// artifact) can still report why a run cost what it did.
var engineTotals struct {
	sync.Mutex
	EngineStats
}

// EngineTotals returns the process-wide sums over all Run calls so far;
// callers subtract two readings. Cycles driven through Tick directly are
// not included.
func EngineTotals() EngineStats {
	engineTotals.Lock()
	defer engineTotals.Unlock()
	return engineTotals.EngineStats
}

// noteRun publishes one Run call's share: what the network's counters
// gained since the reading taken when the call began.
func (n *Network) noteRun(before EngineStats) {
	gained := n.engineStats().Sub(before)
	engineTotals.Lock()
	defer engineTotals.Unlock()
	for i, f := range engineTotals.fields() {
		*f += *gained.fields()[i]
	}
}
