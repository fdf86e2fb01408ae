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
	until := n.now + sim.Cycle(cycles)
	if until > st.stalledUntil {
		st.stalledUntil = until
	}
	n.Trace(trace.Fault, 0, fmt.Sprintf("r%d.p%d", ring, pos), fmt.Sprintf("stalled %d cycles", cycles))
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

// nthLiveSlot returns the nth occupied slot (with its ring and loop) in
// deterministic scan order: ring, then CW loop, then CCW loop, position
// ascending. Positions are logical — the scan goes through the rotation
// offset, so the order matches what the eager-rotation implementation
// produced, not physical storage order. Returns nil when fewer than
// nth+1 slots are occupied.
func (n *Network) nthLiveSlot(nth int) (*slot, *Ring, *loop) {
	n.syncRings()
	for _, r := range n.rings {
		for p := 0; p < r.positions; p++ {
			if s := r.cw.at(p); s.flit != nil {
				if nth == 0 {
					return s, r, &r.cw
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
					return s, r, &r.ccw
				}
				nth--
			}
		}
	}
	return nil, nil, nil
}

// DropLiveFlit removes the nth occupied slot's flit from the network
// (deterministic scan order), counting it as a fault drop. It reports
// whether a victim existed.
func (n *Network) DropLiveFlit(nth int) bool {
	s, r, l := n.nthLiveSlot(nth)
	if s == nil {
		return false
	}
	f := s.flit
	s.flit = nil
	l.occ--
	r.settleHops(f)
	n.dropFlit(f, &n.FaultDrops, r, trace.Fault, "injector", "flit dropped")
	return true
}

// CorruptLiveFlit marks the nth occupied slot's flit corrupted: it keeps
// consuming network bandwidth but is discarded (and counted dropped) at
// its destination, as a link-level CRC failure would be. It reports
// whether a victim existed.
func (n *Network) CorruptLiveFlit(nth int) bool {
	s, _, _ := n.nthLiveSlot(nth)
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
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				n.sweepQueue(r, ni, &ni.inject, expired, false)
				n.sweepQueue(r, ni, &ni.bypass, expired, false)
				before := ni.eject.len()
				n.sweepQueue(r, ni, &ni.eject, expired, true)
				if ni.eject.len() < before {
					ni.promoteReservations()
				}
				// A drained-dry inject path must not leave an armed I-tag
				// circulating reserved forever.
				if ni.itagArmed && ni.inject.len() == 0 && ni.bypass.len() == 0 {
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
		f := s.flit
		if f == nil || !expired(f) {
			continue
		}
		s.flit = nil
		l.occ--
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
func (n *Network) sweepQueue(r *Ring, ni *NodeInterface, q *flitRing, expired func(*Flit) bool, ejectQueue bool) {
	for count := q.len(); count > 0; count-- {
		f := q.pop()
		if expired(f) && !(ejectQueue && f.Dst == ni.node) {
			n.dropFlit(f, &n.WatchdogDrops, r, trace.WatchdogDrop, n.nodes[ni.node].name, "aged out in queue")
			if !ejectQueue {
				r.queued--
			}
			continue
		}
		q.push(f)
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
	r.queued -= ni.inject.len() + ni.bypass.len()
	for _, q := range []*flitRing{&ni.inject, &ni.bypass, &ni.eject} {
		for q.len() > 0 {
			n.dropFlit(q.pop(), &n.FaultDrops, r, trace.Fault, where, "lost in dead bridge")
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
// will never arrive.
func purgeTagState(r *Ring, id uint64) {
	for _, st := range r.stations {
		for _, ni := range st.ifaces {
			if ni == nil {
				continue
			}
			for i, w := range ni.wantEject {
				if w == id {
					ni.wantEject = append(ni.wantEject[:i], ni.wantEject[i+1:]...)
					break
				}
			}
			ni.dropReservation(id)
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
		// s is the occupied ring slot holding f (nil for queued flits);
		// its cached exit position must track the reroute.
		reroute := func(f *Flit, s *slot, pos int, redirect bool) {
			tpos, tiface, err := n.localTarget(r, f)
			if err != nil {
				n.Trace(trace.Reroute, f.ID, "ring", "unroutable; left to watchdog")
				return
			}
			if tpos == f.localDst && tiface == f.localIface {
				return
			}
			f.localDst = tpos
			f.localIface = tiface
			if s != nil {
				s.dst = int32(tpos)
			}
			if redirect {
				f.dir = r.shortestDir(pos, tpos)
			}
			n.ReroutedFlits++
			n.Trace(trace.Reroute, f.ID, "ring", "")
		}
		for p := 0; p < r.positions; p++ {
			if s := r.cw.at(p); s.flit != nil {
				reroute(s.flit, s, p, false)
			}
		}
		if r.full {
			for p := 0; p < r.positions; p++ {
				if s := r.ccw.at(p); s.flit != nil {
					reroute(s.flit, s, p, false)
				}
			}
		}
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				for i := 0; i < ni.inject.len(); i++ {
					reroute(ni.inject.at(i), nil, st.pos, true)
				}
				for i := 0; i < ni.bypass.len(); i++ {
					reroute(ni.bypass.at(i), nil, st.pos, true)
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
				for i := 0; i < ni.eject.len(); i++ {
					if ni.eject.at(i).Dst != ni.node {
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
// flit. It also recounts every ring's inject and bypass queues against
// the ring's running queued count — the number the idle-ring gate trusts
// — so a site that forgot to keep it exact fails here, not as a ring that
// never wakes. Every station's head summary is recomputed from its
// interfaces' heads the same way: a refresh site that went missing would
// otherwise show up as a head that never injects.
func (n *Network) CheckConservation() error {
	n.syncRings()
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
	}
	accounted := n.AccountedFlits()
	if n.InjectedFlits != n.DeliveredFlits+n.DroppedFlits+accounted {
		return fmt.Errorf("noc: conservation violated: injected %d != delivered %d + dropped %d + accounted %d",
			n.InjectedFlits, n.DeliveredFlits, n.DroppedFlits, accounted)
	}
	return nil
}
