// Activity gating: a component that would do nothing is not visited.
//
// Below saturation most rings carry nothing and most devices wait for a
// reply most cycles; at saturation most senders wait for a slot. The two
// loops here — the only ring loop and the only device loop the tick engine
// has — skip them:
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
//     Every device has one awake bit, in registration order, and the device
//     loop visits set bits only. A device anchored at a node clears its bit
//     when IdleUntil(now+1) lies in the future; a finite answer goes into
//     the timed-wake calendar (wakeCal), and four things set the bit again:
//     an ejection into one of its interfaces, NodeInterface.Wake, any fault
//     operation or restore (wakeAll), and a pop from one of its inject
//     lanes that was full. A device with no node of its own to be woken
//     through is asked IdleUntil(now) every cycle instead (the polled mask).
//   - When every ring is idle and every device sleeps, Run jumps the
//     clock to the earliest wake (skipQuiescent), clamped so that a
//     watchdog sweep or metrics sample falls on the landing cycle, never
//     inside the jump (clampStretch).
//
// Nothing simulated changes: the bits, the calendar and the counts are
// derived state, never serialized, recounted by Network.CheckConservation,
// and Network.forceAwake (tests only) turns all of it off to give the
// differential suites their reference engine. There is no other engine:
// DESIGN.md §4 records why the partitioned one was deleted.
package noc

import (
	"math/bits"
	"sync"

	"chipletnoc/internal/sim"
)

// NodeOwner is implemented by devices anchored at a single network node
// (requesters, memory and coherence controllers, ring bridges). Such a
// device can be woken through its node's interfaces, so it may sleep.
type NodeOwner interface {
	Node() NodeID
}

// IdleUntiler is implemented by devices that can tell when their Tick is
// a no-op. IdleUntil(now) > now promises that Tick(now) would change
// nothing — no field of the device, no flit sent, received or released,
// no trace event — and that the same holds for every later cycle before
// the returned one unless the device is woken first. The one exception
// is settled bookkeeping: per-cycle arithmetic that depends only on how
// many cycles passed (a bucket refill, a landed credit pulse, a stall
// count) may be slept through if the device replays it exactly — the
// same operations in the same order — at its next Tick, settles it
// before a checkpoint save writes it and adds what is owed when a reader
// asks between ticks. There are four wake
// sources: a flit ejected into one of its interfaces; NodeInterface.Wake
// from a device that queued work on it directly; a fault operation,
// throttle change or checkpoint restore; and a flit leaving one of its
// inject queues that was full — the only state a refused Send can be
// waiting on. A device with nothing to wait for returns the far future;
// one with work returns now.
//
// The tick engine uses the promise in two ways. A device that is also a
// NodeOwner, the first such on its node, sleeps: after each Tick the
// network asks IdleUntil(now+1) and, if that lies in the future, skips the
// device until that cycle or a wake, whichever comes first. Any other
// (the fault injector and the serving orchestrator have no node) cannot be
// woken that way, so it is asked IdleUntil(now) at its registration slot
// every cycle instead. When every ring is idle and every device's answer
// lies in the future, Run jumps the clock to the earliest one.
type IdleUntiler interface {
	IdleUntil(now sim.Cycle) sim.Cycle
}

// Never is what IdleUntil returns when the device has nothing to wait
// for: it stays idle until it is handed work.
const Never = sim.Cycle(^uint64(0))

// devGate is one device and how it is gated. idle == nil: it ticks every
// cycle. kind is where its Tick calls are counted, with those of the
// network's other devices of its Go type.
type devGate struct {
	dev  Device
	idle IdleUntiler
	kind *kindTally
}

// kindTally counts the Tick calls the devices of one Go type got on one
// network (host-side diagnostics, see DeviceTicksByKind);
// PublishEngineStats has added noted of them to the process-wide entry
// total.
type kindTally struct {
	total        *KindTicks
	devices      uint64
	ticks, noted uint64
}

// wakeCal is the timed-wake calendar: a binary min-heap of the cycles at
// which sleeping devices asked to be woken, at most one entry per device.
// slot[dev] is the index of the device's entry, -1 when it has none, so a
// device that is woken early and sleeps again re-keys its entry in place:
// the heap never outgrows the device count and never allocates after
// bindGates. An entry whose device was woken early stays until the device
// sleeps again or its cycle comes; firing it sets a bit that is already set.
type wakeCal struct {
	heap []wakeEntry
	slot []int32
}

type wakeEntry struct {
	at  sim.Cycle
	dev int32
}

// set makes at the cycle dev is woken: it inserts or re-keys dev's entry,
// and removes it when at is Never.
func (c *wakeCal) set(dev int32, at sim.Cycle) {
	i := int(c.slot[dev])
	if at != Never {
		if i < 0 {
			i = len(c.heap)
			c.heap = append(c.heap, wakeEntry{})
		}
		c.place(i, wakeEntry{at, dev})
	} else if i >= 0 {
		last := len(c.heap) - 1
		moved := c.heap[last]
		c.heap = c.heap[:last]
		c.slot[dev] = -1
		if i < last {
			c.place(i, moved)
		}
	}
}

// place stores e in the hole at heap index i, sifted up or down to where
// its cycle belongs.
func (c *wakeCal) place(i int, e wakeEntry) {
	h := c.heap
	for i > 0 {
		up := (i - 1) / 2
		if h[up].at <= e.at {
			break
		}
		h[i] = h[up]
		c.slot[h[i].dev] = int32(i)
		i = up
	}
	for {
		kid := 2*i + 1
		if kid+1 < len(h) && h[kid+1].at < h[kid].at {
			kid++
		}
		if kid >= len(h) || e.at <= h[kid].at {
			break
		}
		h[i] = h[kid]
		c.slot[h[i].dev] = int32(i)
		i = kid
	}
	h[i] = e
	c.slot[e.dev] = int32(i)
}

// next returns the earliest cycle in the calendar, Never when it is empty.
func (c *wakeCal) next() sim.Cycle {
	if len(c.heap) == 0 {
		return Never
	}
	return c.heap[0].at
}

// bindGates gates every device of the current list: one awake bit each in
// registration order, everything awake, the calendar empty. A device that
// can sleep (an IdleUntiler anchored at a node) claims its node's
// interfaces — an ejection into any of them sets its bit — unless an
// earlier sleeper has; every other device goes into the polled mask: it
// keeps its bit set and is ticked, or asked, every cycle.
func (n *Network) bindGates() {
	for _, info := range n.nodes {
		for _, ni := range info.ifaces {
			ni.wake, ni.wakeBit = nil, 0
		}
	}
	words := (len(n.devices) + 63) / 64
	n.devs = make([]devGate, len(n.devices))
	n.awake, n.polled = make([]uint64, words), make([]uint64, words)
	n.cal = wakeCal{heap: make([]wakeEntry, 0, len(n.devices)), slot: make([]int32, len(n.devices))}
	n.kinds = n.tallyKinds()
	for i, d := range n.devices {
		g := &n.devs[i]
		g.dev = d
		g.idle, _ = d.(IdleUntiler)
		n.cal.slot[i] = -1
		word, bit := &n.awake[i>>6], uint64(1)<<(uint(i)&63)
		*word |= bit
		if o, ok := d.(NodeOwner); ok && g.idle != nil {
			if ifaces := n.nodes[o.Node()].ifaces; len(ifaces) > 0 && ifaces[0].wake == nil {
				for _, ni := range ifaces {
					ni.wake, ni.wakeBit = word, bit
				}
				continue
			}
		}
		n.polled[i>>6] |= bit
	}
}

// wakeAll makes every device tick at its next slot and empties the
// calendar: fault operations, throttle changes and checkpoint restores
// change what devices would see without going through an interface.
func (n *Network) wakeAll() {
	for i := range n.devs { // none while unbound: bindGates starts everything awake

		n.awake[i>>6] |= 1 << (uint(i) & 63)
	}
	for _, e := range n.cal.heap {
		n.cal.slot[e.dev] = -1
	}
	n.cal.heap = n.cal.heap[:0]
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

// tickDevices runs one cycle of the devices that are awake, in
// registration order. The calendar's due entries are drained first; then
// each word of awake bits is read again after every Tick, so a device
// woken by an earlier slot of this cycle still runs in it and one woken
// by a later slot runs in the next. A device that owns its node goes to
// sleep — the only store — when IdleUntil(now+1) lies in the future.
func (n *Network) tickDevices(now sim.Cycle) {
	if n.forceAwake {
		for i := range n.devs {
			n.devs[i].dev.Tick(now)
			n.devs[i].kind.ticks++
		}
		return
	}
	for c := &n.cal; c.next() <= now; {
		dev := c.heap[0].dev
		c.set(dev, Never)
		n.awake[dev>>6] |= 1 << (uint(dev) & 63)
	}
	ran := 0
	for w, polled := range n.polled {
		n.awake[w] |= polled
		for rest := ^uint64(0); n.awake[w]&rest != 0; {
			b := bits.TrailingZeros64(n.awake[w] & rest)
			bit := uint64(1) << uint(b)
			rest = ^(bit<<1 - 1) // the slots after this one
			g := &n.devs[w<<6|b]
			if polled&bit != 0 {
				if g.idle != nil && g.idle.IdleUntil(now) > now {
					continue
				}
				g.dev.Tick(now)
			} else {
				g.dev.Tick(now)
				if until := g.idle.IdleUntil(now + 1); until > now+1 {
					n.awake[w] &^= bit
					n.cal.set(int32(w<<6|b), until)
				}
			}
			g.kind.ticks++
			ran++
		}
	}
	n.DeviceTicksSkipped += uint64(len(n.devs) - ran)
}

// skipQuiescent jumps the clock over the cycles in which nothing at all
// would tick and returns how many it skipped (0 when anything is busy).
// The test is cheap when the network is busy — some sleeper's bit is set —
// and otherwise O(rings + polled devices): every ring idle, the calendar's
// earliest entry and every polled device's answer in the future. The
// landing cycle runs the cycle tail, so a watchdog sweep or metrics
// sample due on it fires; clampStretch keeps such a boundary from falling
// inside the jump. A throttle controller samples its window every cycle,
// so its presence rules jumps out.
func (n *Network) skipQuiescent(remaining int) int {
	if remaining <= 0 || n.throttle != nil || n.forceAwake {
		return 0
	}
	for w, polled := range n.polled {
		if n.awake[w]&^polled != 0 {
			return 0
		}
	}
	for _, r := range n.rings {
		if !r.idle() {
			return 0
		}
	}
	t0 := sim.Cycle(n.ticks)
	wake := n.cal.next() // a sleeper's: a device woken since its entry went in returned above
	if wake <= t0 {
		return 0
	}
	for w, polled := range n.polled {
		for ; polled != 0; polled &= polled - 1 {
			d := &n.devs[w<<6|bits.TrailingZeros64(polled)]
			if d.idle == nil {
				return 0
			}
			at := d.idle.IdleUntil(t0)
			if at <= t0 {
				return 0
			}
			if at < wake {
				wake = at
			}
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

// Run advances the network the given number of cycles.
func (n *Network) Run(cycles int) { n.RunUntil(nil, cycles) }

// RunUntil advances the network until stop returns true or budget cycles
// have run, and returns whether stop was satisfied; a nil stop never is.
// It is the one run loop: Tick, then a jump over whatever quiescent
// stretch follows, publishing the engine counters as it returns. stop is
// asked before the first cycle, after every Tick and on a jump's landing
// cycle — a jump is taken only once stop has said no, and nothing inside
// one can change its answer — so the run ends on exactly the cycle a loop
// of Tick calls polling stop every cycle would, in the same state.
func (n *Network) RunUntil(stop func() bool, budget int) bool {
	stopped := func() bool { return stop != nil && stop() }
	if stopped() {
		return true
	}
	if budget <= 0 {
		return false
	}
	if !n.finalized {
		panic("noc: Run before Finalize")
	}
	defer n.PublishEngineStats()
	for done := 0; done < budget; {
		n.Tick(sim.Cycle(n.ticks))
		done++
		if stopped() {
			return true
		}
		k := n.skipQuiescent(budget - done)
		done += k
		if k > 0 && stopped() {
			return true
		}
	}
	return false
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

// engineTotals sums what every network of the process has published, so
// a caller that never sees the networks (cmd/experiments -timing, around
// a whole artifact) can still report why a run cost what it did.
var engineTotals = struct {
	sync.Mutex
	EngineStats
	byKind map[string]*KindTicks
}{byKind: map[string]*KindTicks{}}

// EngineTotals returns the process-wide sums published so far; callers
// subtract two readings. Run and RunUntil publish as they return; cycles
// driven through Tick directly count once their driver calls
// PublishEngineStats.
func EngineTotals() EngineStats {
	engineTotals.Lock()
	defer engineTotals.Unlock()
	return engineTotals.EngineStats
}

// PublishEngineStats adds to the process-wide totals what the network's
// counters, and each kind's device ticks, gained since it last published.
// RunUntil calls it as it returns; a harness that drives Tick itself calls
// it once when its run is over — never per cycle: it takes the process
// lock.
func (n *Network) PublishEngineStats() {
	now := n.engineStats()
	gained := now.Sub(n.noted)
	n.noted = now
	engineTotals.Lock()
	defer engineTotals.Unlock()
	for i, f := range engineTotals.fields() {
		*f += *gained.fields()[i]
	}
	for _, k := range n.kinds {
		ran := k.ticks - k.noted
		k.noted = k.ticks
		k.total.Ticks += ran
		k.total.Skipped += gained.Cycles*k.devices - ran
	}
}
