package noc

import (
	"fmt"
	"sort"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// ErrUnreachable reports that no route exists from a ring to a node —
// either a topology bug at Finalize time or, at run time, the result of
// every bridge towards the destination having failed. It carries the
// node and ring identities so callers can log exactly which path died.
type ErrUnreachable struct {
	Node     NodeID
	NodeName string
	Ring     RingID
}

// Error implements error.
func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("node %d (%s) unreachable from ring %d", e.Node, e.NodeName, e.Ring)
}

// unreachable builds the typed routing error for a destination.
func (n *Network) unreachable(r RingID, dst NodeID) *ErrUnreachable {
	return &ErrUnreachable{Node: dst, NodeName: n.nodes[dst].name, Ring: r}
}

// NodeByName resolves a node's debug name to its ID (fault schedules
// name bridges, the network numbers them).
func (n *Network) NodeByName(name string) (NodeID, bool) {
	for id, info := range n.nodes {
		if info.name == name {
			return NodeID(id), true
		}
	}
	return 0, false
}

// BridgeNames returns every bridge node's debug name in node-ID order —
// the candidate victim list for fault schedules.
func (n *Network) BridgeNames() []string {
	var out []string
	for _, info := range n.nodes {
		if len(info.ifaces) >= 2 {
			out = append(out, info.name)
		}
	}
	return out
}

// NodeFailed reports whether a bridge node is currently failed.
func (n *Network) NodeFailed(id NodeID) bool { return n.failed[id] }

// FailedBridges returns the currently failed bridge nodes in ID order.
func (n *Network) FailedBridges() []NodeID {
	out := make([]NodeID, 0, len(n.failed))
	for id := range n.failed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FailBridge marks a bridge node dead: the ring-graph routing tables are
// rebuilt without it, live flits are re-routed onto surviving paths, and
// localTarget stops load-balancing onto it. The bridge device itself
// notices the failure on its next Tick and discards its buffered flits
// (a dead bridge loses what it holds — the CHI layer's timeout/retry
// recovers the transactions). Failing an already-failed bridge is a
// no-op.
func (n *Network) FailBridge(node NodeID) error {
	if int(node) < 0 || int(node) >= len(n.nodes) {
		return fmt.Errorf("noc: FailBridge: no node %d", node)
	}
	info := n.nodes[node]
	if len(info.ifaces) < 2 {
		return fmt.Errorf("noc: FailBridge: node %d (%s) is not a bridge", node, info.name)
	}
	if n.failed[node] {
		return nil
	}
	if n.failed == nil {
		n.failed = make(map[NodeID]bool)
	}
	n.failed[node] = true
	n.Trace(trace.Fault, 0, info.name, "bridge killed")
	n.rebuildRoutes()
	n.rerouteLiveFlits()
	n.wakeAll()
	return nil
}

// RepairBridge restores a failed bridge: routing tables are rebuilt with
// it and live flits may re-route back onto the shorter paths. Repairing
// a healthy bridge is a no-op.
func (n *Network) RepairBridge(node NodeID) error {
	if int(node) < 0 || int(node) >= len(n.nodes) {
		return fmt.Errorf("noc: RepairBridge: no node %d", node)
	}
	if !n.failed[node] {
		return nil
	}
	delete(n.failed, node)
	n.Trace(trace.Fault, 0, n.nodes[node].name, "bridge repaired")
	n.rebuildRoutes()
	n.rerouteLiveFlits()
	n.wakeAll()
	return nil
}

// StallStation freezes the station at (ring, pos) for the given number
// of cycles: no ejections, no injections, no local transfers — flits
// fly past as if the station logic lost its clock. Stalling an already
// stalled station extends the stall.
func (n *Network) StallStation(ring RingID, pos int, cycles int) error {
	if int(ring) < 0 || int(ring) >= len(n.rings) {
		return fmt.Errorf("noc: StallStation: no ring %d", ring)
	}
	st := n.rings[ring].Station(pos)
	if st == nil {
		return fmt.Errorf("noc: StallStation: no station at ring %d pos %d", ring, pos)
	}
	// A stalled station counts no defeat, so it is never parked: what it
	// is owed for the cycles it was parked through is settled first.
	st.settleNow()
	until := n.now + sim.Cycle(cycles)
	if until > st.stalledUntil {
		st.stalledUntil = until
	}
	st.classify()
	if n.Tracer != nil {
		n.Trace(trace.Fault, 0, fmt.Sprintf("r%d.p%d", ring, pos), fmt.Sprintf("stalled %d cycles", cycles))
	}
	n.wakeAll()
	return nil
}

// LiveSlotCount returns the number of occupied ring slots network-wide —
// the victim pool for flit-level fault injection.
func (n *Network) LiveSlotCount() int {
	total := 0
	for _, r := range n.rings {
		total += r.occupancy()
	}
	return total
}

// nthLiveSlot returns the nth occupied slot (with its ring, loop and
// position) in deterministic scan order: ring, then CW loop, then CCW
// loop, position ascending. Positions are logical — the scan goes through
// the rotation offset, so the order matches what the eager-rotation
// implementation produced, not physical storage order. Returns nil when
// fewer than nth+1 slots are occupied.
func (n *Network) nthLiveSlot(nth int) (*slot, *Ring, *loop, int) {
	n.syncRings()
	for _, r := range n.rings {
		for p := 0; p < r.positions; p++ {
			if s := r.cw.at(p); s.flit != nil {
				if nth == 0 {
					return s, r, &r.cw, p
				}
				nth--
			}
		}
		if !r.full {
			continue
		}
		for p := 0; p < r.positions; p++ {
			if s := r.ccw.at(p); s.flit != nil {
				if nth == 0 {
					return s, r, &r.ccw, p
				}
				nth--
			}
		}
	}
	return nil, nil, nil, 0
}

// DropLiveFlit removes the nth occupied slot's flit from the network
// (deterministic scan order), counting it as a fault drop. It reports
// whether a victim existed.
func (n *Network) DropLiveFlit(nth int) bool {
	s, r, l, pos := n.nthLiveSlot(nth)
	if s == nil {
		return false
	}
	f := l.vacate(s, pos)
	r.settleHops(f)
	n.dropFlit(f, &n.FaultDrops, r, trace.Fault, "injector", "flit dropped")
	return true
}

// CorruptLiveFlit marks the nth occupied slot's flit corrupted: it keeps
// consuming network bandwidth but is discarded (and counted dropped) at
// its destination, as a link-level CRC failure would be. It reports
// whether a victim existed.
func (n *Network) CorruptLiveFlit(nth int) bool {
	s, _, _, _ := n.nthLiveSlot(nth)
	if s == nil {
		return false
	}
	s.flit.Corrupted = true
	n.Trace(trace.Fault, s.flit.ID, "injector", "flit corrupted")
	return true
}

// SetWatchdog arms the per-flit age watchdog: any in-network flit older
// than budget cycles is removed and counted in WatchdogDrops — the
// degradation path for flits stranded by a dead bridge or livelocked by
// a stalled station. period is the scan cadence in cycles (0 picks
// budget/4, minimum 1); detection latency is therefore at most
// budget + period. budget 0 disables the watchdog, which is the default
// — fault-free runs pay nothing.
func (n *Network) SetWatchdog(budget, period int) {
	if budget < 0 {
		budget = 0
	}
	if period <= 0 {
		period = budget / 4
	}
	if period < 1 {
		period = 1
	}
	n.watchdogBudget = uint64(budget)
	n.watchdogPeriod = uint64(period)
}

// watchdogSweep scans ring slots and interface queues for flits past the
// age budget and drops them. Eject-queue entries already at their final
// destination are spared: those count as delivered, and draining them is
// the device's job, not the network's.
func (n *Network) watchdogSweep(now sim.Cycle) {
	budget := sim.Cycle(n.watchdogBudget)
	expired := func(f *Flit) bool { return now-f.Created > budget }
	n.syncRings()
	for _, r := range n.rings {
		n.sweepLoop(r, &r.cw, expired)
		if r.full {
			n.sweepLoop(r, &r.ccw, expired)
		}
		for _, st := range r.stations {
			st.settleNow() // before any defeat count below is reset
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				queued := ni.inject.Len()
				n.sweepQueue(r, ni, &ni.inject, expired, false)
				if ni.inject.Len() < queued {
					ni.Wake() // inject space: the owner may be asleep on a refused Send
				}
				n.sweepQueue(r, ni, &ni.bypass, expired, false)
				before := ni.eject.Len()
				n.sweepQueue(r, ni, &ni.eject, expired, true)
				if ni.eject.Len() < before {
					ni.promoteReservations()
				}
				// A drained-dry inject path must not leave an armed I-tag
				// circulating reserved forever.
				if ni.itagArmed && ni.inject.Len()+ni.bypass.Len() == 0 {
					ni.itagArmed = false
					ni.injectFails = 0
					ni.releaseTags()
				}
				ni.refreshHead()
			}
		}
	}
}

// sweepLoop drops expired flits from one slot loop, scanning logical
// positions ascending so drop (and trace) order matches the
// eager-rotation implementation.
func (n *Network) sweepLoop(r *Ring, l *loop, expired func(*Flit) bool) {
	for p := 0; p < r.positions; p++ {
		s := l.at(p)
		if s.flit == nil || !expired(s.flit) {
			continue
		}
		f := l.vacate(s, p)
		r.settleHops(f)
		n.dropFlit(f, &n.WatchdogDrops, r, trace.WatchdogDrop, "ring", "aged out on ring")
	}
}

// sweepQueue filters one interface queue, dropping expired flits. When
// ejectQueue is set, entries addressed to this interface's own node are
// spared (they are already counted delivered). Each surviving entry is
// popped and re-pushed exactly once, which restores the original FIFO
// order after len(q) iterations. Flits dropped from the inject and bypass
// queues leave the ring's queued count with them.
func (n *Network) sweepQueue(r *Ring, ni *NodeInterface, q *sim.FIFO[*Flit], expired func(*Flit) bool, ejectQueue bool) {
	for count := q.Len(); count > 0; count-- {
		f := q.Pop()
		if expired(f) && !(ejectQueue && f.Dst == ni.node) {
			n.dropFlit(f, &n.WatchdogDrops, r, trace.WatchdogDrop, n.nodes[ni.node].name, "aged out in queue")
			if !ejectQueue {
				r.queued--
			}
			continue
		}
		q.Push(f)
	}
}

// dropFlit accounts one removed flit: the aggregate dropped counter
// (part of the conservation invariant), the per-cause counter, a purge of
// any E-tag state the flit left on its current ring, and a trace event.
// The flit is returned to the free-list — callers must not reference it
// after this call.
func (n *Network) dropFlit(f *Flit, cause *uint64, r *Ring, kind trace.Kind, where, detail string) {
	n.DroppedFlits++
	*cause++
	if r != nil {
		purgeTagState(r, f.ID)
	}
	n.Trace(kind, f.ID, where, detail)
	n.ReleaseFlit(f)
}

// dropInterfaceQueues discards everything queued at an interface — the
// owning device (a bridge) died — counting the flits as fault drops.
func (n *Network) dropInterfaceQueues(ni *NodeInterface) {
	r := ni.station.ring
	where := n.nodes[ni.node].name
	ni.station.settleNow() // before the defeat count below is reset
	r.queued -= ni.inject.Len() + ni.bypass.Len()
	for _, q := range []*sim.FIFO[*Flit]{&ni.inject, &ni.bypass, &ni.eject} {
		for q.Len() > 0 {
			n.dropFlit(q.Pop(), &n.FaultDrops, r, trace.Fault, where, "lost in dead bridge")
		}
	}
	if ni.itagArmed {
		ni.itagArmed = false
		ni.injectFails = 0
		ni.releaseTags()
	}
	ni.promoteReservations()
	ni.refreshHead()
}

// purgeTagState removes a dropped flit's pending eject registrations and
// reservations on a ring so eject capacity is not held for a flit that
// will never arrive. A freed reservation goes to the oldest flit still
// registered, as a freed eject entry does.
func purgeTagState(r *Ring, id uint64) {
	for _, st := range r.stations {
		for _, ni := range st.ifaces {
			if ni == nil {
				continue
			}
			for k := ni.wantEject.Len(); k > 0; k-- { // one turn of the queue, minus id
				if w := ni.wantEject.Pop(); w != id {
					ni.wantEject.Push(w)
				}
			}
			if ni.dropReservation(id) {
				ni.promoteReservations()
			}
		}
	}
}

// rerouteLiveFlits recomputes the exit point of every flit on a ring
// slot or in an inject/escape queue after a routing-table rebuild. Flits
// whose destination became unreachable keep their stale exit and are
// left to the watchdog; flits whose best exit moved (a parallel bridge
// died, or a repaired bridge restored the short path) are retargeted.
func (n *Network) rerouteLiveFlits() {
	n.syncRings()
	for _, r := range n.rings {
		// s is the occupied ring slot holding f, and l its loop (both nil
		// for queued flits): the slot's cached exit position and the
		// loop's arrival calendar must track the reroute.
		reroute := func(f *Flit, l *loop, s *slot, pos int, redirect bool) {
			tpos, tiface, err := n.localTarget(r, f)
			if err != nil {
				n.Trace(trace.Reroute, f.ID, "ring", "unroutable; left to watchdog")
				return
			}
			if tpos == int(f.localDst) && tiface == int(f.localIface) {
				return
			}
			f.localDst = int32(tpos)
			f.localIface = int8(tiface)
			if s != nil {
				l.expect(s, pos, tpos)
			}
			if redirect {
				f.dir = r.shortestDir(pos, tpos)
			}
			n.ReroutedFlits++
			n.Trace(trace.Reroute, f.ID, "ring", "")
		}
		for p := 0; p < r.positions; p++ {
			if s := r.cw.at(p); s.flit != nil {
				reroute(s.flit, &r.cw, s, p, false)
			}
		}
		if r.full {
			for p := 0; p < r.positions; p++ {
				if s := r.ccw.at(p); s.flit != nil {
					reroute(s.flit, &r.ccw, s, p, false)
				}
			}
		}
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				for i := 0; i < ni.inject.Len(); i++ {
					reroute(ni.inject.At(i), nil, nil, st.pos, true)
				}
				for i := 0; i < ni.bypass.Len(); i++ {
					reroute(ni.bypass.At(i), nil, nil, st.pos, true)
				}
				ni.refreshHead()
			}
		}
	}
}

// FlitBufferer is implemented by devices (the ring bridges) that hold
// flits in internal buffers, so conservation accounting can see them.
type FlitBufferer interface {
	BufferedFlits() int
}

// AccountedFlits counts every flit the network can currently see: ring
// slots, inject/escape queues, transit eject entries (final-destination
// eject entries are already counted delivered) and device-internal
// buffers via FlitBufferer. The conservation invariant is
//
//	InjectedFlits == DeliveredFlits + DroppedFlits + AccountedFlits()
//
// at every cycle boundary; CheckConservation asserts it.
func (n *Network) AccountedFlits() uint64 {
	var total uint64
	for _, r := range n.rings {
		total += uint64(r.occupancy() + r.queued)
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				for i := 0; i < ni.eject.Len(); i++ {
					if ni.eject.At(i).Dst != ni.node {
						total++
					}
				}
			}
		}
	}
	for _, d := range n.devices {
		if fb, ok := d.(FlitBufferer); ok {
			total += uint64(fb.BufferedFlits())
		}
	}
	return total
}

// CheckConservation verifies the flit conservation invariant, returning
// a descriptive error when accounting has leaked or double-counted a
// flit. It also recounts the derived state the tick engine trusts, so a
// site that forgot to keep it exact fails here and not as a ring that
// never wakes, a head that never injects or a flit that never gets off:
// every ring's inject and bypass queues against its running queued count
// (the idle-ring gate), every station's head summary against its
// interfaces' heads, the visit set (Ring.checkVisitSet) and the devices'
// awake bits and timed-wake calendar (checkAwakeSet).
func (n *Network) CheckConservation() error {
	n.syncRings()
	n.settleStations()
	if err := n.checkAwakeSet(); err != nil {
		return err
	}
	for _, r := range n.rings {
		if queued := r.countQueued(); queued != r.queued {
			return fmt.Errorf("noc: ring %d counts %d queued flits, its interfaces hold %d", r.id, r.queued, queued)
		}
		for _, st := range r.stations {
			for i, ni := range st.ifaces {
				want := wantNone
				if ni != nil {
					want = ni.headWant()
				}
				if st.want[i] != want {
					return fmt.Errorf("noc: ring %d pos %d interface %d head summary is %d, its head says %d", r.id, st.pos, i, st.want[i], want)
				}
			}
		}
		if err := r.checkVisitSet(); err != nil {
			return err
		}
	}
	accounted := n.AccountedFlits()
	if n.InjectedFlits != n.DeliveredFlits+n.DroppedFlits+accounted {
		return fmt.Errorf("noc: conservation violated: injected %d != delivered %d + dropped %d + accounted %d",
			n.InjectedFlits, n.DeliveredFlits, n.DroppedFlits, accounted)
	}
	return nil
}

// checkAwakeSet recounts what tickDevices decides from, at a cycle
// boundary. A device whose bit is clear and that names a cycle it wants to
// tick at must have a calendar entry no later than it; if the cycle is
// now, a wake went missing (an ejection, a freed inject entry). The
// calendar must be a heap with at most one entry per device, each indexed
// by slot, none for a device that is out of range or polled.
func (n *Network) checkAwakeSet() error {
	if n.awake == nil {
		return nil // not bound yet
	}
	now, c := sim.Cycle(n.ticks), &n.cal
	isSet := func(mask []uint64, dev int) bool { return mask[dev>>6]>>(uint(dev)&63)&1 != 0 }
	for i, e := range c.heap {
		switch {
		case int(e.dev) >= len(n.devs):
			return fmt.Errorf("noc: wake calendar entry %d names device %d of %d", i, e.dev, len(n.devs))
		case c.slot[e.dev] != int32(i):
			return fmt.Errorf("noc: wake calendar holds a second entry for %s (entry %d, indexed %d)", n.devs[e.dev].dev.Name(), i, c.slot[e.dev])
		case isSet(n.polled, int(e.dev)):
			return fmt.Errorf("noc: wake calendar holds polled device %s", n.devs[e.dev].dev.Name())
		case i > 0 && c.heap[(i-1)/2].at > e.at:
			return fmt.Errorf("noc: wake calendar out of order at entry %d (cycle %d under %d)", i, e.at, c.heap[(i-1)/2].at)
		}
	}
	for i := range n.devs {
		g := &n.devs[i]
		if s := c.slot[i]; s >= 0 && (int(s) >= len(c.heap) || c.heap[s].dev != int32(i)) {
			return fmt.Errorf("noc: %s is indexed at wake calendar entry %d, which is not its own", g.dev.Name(), s)
		}
		if isSet(n.awake, i) || isSet(n.polled, i) {
			continue
		}
		until := g.idle.IdleUntil(now)
		if s := c.slot[i]; until == Never || s >= 0 && c.heap[s].at <= until {
			continue // no wish to wake, or the calendar wakes it in time
		}
		if until <= now {
			return fmt.Errorf("noc: %s is asleep at cycle %d but has work: a wake was lost", g.dev.Name(), now)
		}
		return fmt.Errorf("noc: %s sleeps until cycle %d with no wake calendar entry at or before it", g.dev.Name(), until)
	}
	return nil
}

// checkVisitSet recounts what Ring.tick decides from. Each loop's free
// mask and occupancy must equal its slots, and every occupied slot's exit
// must be in the arrival calendar (a superset is allowed, a subset is a
// flit that never gets off; tests place flits that have no station to get
// off at, which the calendar has no business with). Each station's busy
// and parked bits must be what classify derives now, no bit may sit where
// there is no station, and no station may be accounted for beyond the
// current tick.
func (r *Ring) checkVisitSet() error {
	loops := []*loop{&r.cw}
	if r.full {
		loops = append(loops, &r.ccw)
	}
	for d, l := range loops {
		occ := 0
		var freeWord uint64
		for p := 0; p < r.positions; p++ {
			if p&63 == 0 {
				freeWord = l.freeAt(p >> 6)
			}
			s := l.at(p)
			if free := freeWord>>(uint(p)&63)&1 != 0; free != (s.flit == nil) {
				return fmt.Errorf("noc: ring %d %v position %d: free mask says %v, the slot says %v", r.id, Direction(d), p, free, s.flit == nil)
			}
			if s.flit == nil {
				continue
			}
			occ++
			if word, bit := l.expected(p, int(s.dst)); r.stationAt[s.dst] != nil && *word&bit == 0 {
				return fmt.Errorf("noc: ring %d %v position %d: flit %d gets off at %d, which the arrival calendar does not expect", r.id, Direction(d), p, s.flit.ID, s.dst)
			}
		}
		if occ != l.occ {
			return fmt.Errorf("noc: ring %d %v counts %d occupied slots, holds %d", r.id, Direction(d), l.occ, occ)
		}
		if last := r.positions >> 6; last < len(l.free) && l.freeAt(last)>>(uint(r.positions)&63) != 0 {
			return fmt.Errorf("noc: ring %d %v free mask has bits beyond position %d", r.id, Direction(d), r.positions-1)
		}
	}
	read := func(pos int) (bits [3]bool) {
		set := r.stationSet[pos>>6]
		for i, m := range [3]uint64{set.busy, set.parked[CW], set.parked[CCW]} {
			bits[i] = m>>(uint(pos)&63)&1 != 0
		}
		return bits
	}
	for p := 0; p < r.positions; p++ {
		st := r.stationAt[p]
		was := read(p)
		if st == nil {
			if was != [3]bool{} {
				return fmt.Errorf("noc: ring %d position %d has no station but visit-set bits %v", r.id, p, was)
			}
			continue
		}
		if st.lastVisit > r.net.ticks {
			return fmt.Errorf("noc: ring %d pos %d accounted through tick %d, the network is at %d", r.id, p, st.lastVisit, r.net.ticks)
		}
		st.classify()
		is := read(p)
		// A stall that ran out while the ring was being skipped leaves its
		// busy bit behind for the next visit to clear.
		if lapsed := st.stalledUntil > 0 && r.now >= st.stalledUntil; was[0] && lapsed {
			was[0] = is[0]
		}
		if was != is {
			return fmt.Errorf("noc: ring %d pos %d visit-set bits (busy, parked cw, parked ccw) are %v, the station says %v", r.id, p, was, is)
		}
	}
	return nil
}
