package noc

import (
	"fmt"
	"slices"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// DefaultInjectDepth and DefaultEjectDepth size the node-interface queues.
// The paper reuses the AMBA5-CHI transaction buffers for these, so they
// are small; eight entries keeps the destination-side buffering modest
// while leaving room for the out-of-order arrivals bufferless routing
// produces.
const (
	DefaultInjectDepth = 8
	DefaultEjectDepth  = 8
)

// bypassDepth sizes every interface's priority-inject (escape) lane. It
// is also the base of the L2 bridge's escape-lane credit window, so the
// bridge never launches more escapes than the far lane can absorb.
const bypassDepth = 4

// ITagThreshold is how many consecutive injection defeats a node interface
// tolerates before arming an I-tag on the passing slot. One defeat is
// enough per the paper ("unable to obtain a ring slot for a certain
// cycle"); we keep it configurable for the ablation bench.
const ITagThreshold = 1

// NodeInterface connects one device to a cross station. It owns the
// bounded Inject Queue and Eject Queue of Figure 7(A).
type NodeInterface struct {
	node    NodeID
	station *CrossStation
	index   int // 0 or 1 within the station
	// nodeSlot is this interface's index in the owning node's interface
	// list — the row key into the node's precomputed forwarding table.
	nodeSlot int

	// wake and wakeBit name the awake bit (see gate.go) of the device that
	// sleeps on this interface: Wake sets it. Nil while the gates are not
	// bound and for an interface no sleeper owns.
	wake    *uint64
	wakeBit uint64

	inject sim.FIFO[*Flit]
	eject  sim.FIFO[*Flit]
	// bypass is the deadlock-escape injection lane: flits rescued by a
	// bridge's SWAP machinery queue here and take priority over the
	// normal inject queue, so the escape path has reserved resources end
	// to end (Section 4.4's "reserved Tx buffers are activated").
	bypass sim.FIFO[*Flit]

	// E-tag state: IDs of deflected flits waiting for an eject
	// reservation (FIFO order) and the currently reserved IDs, for which
	// len(reserved) eject entries are held back. Both lists are tiny
	// (bounded by the eject pressure at one interface), so membership is
	// a linear scan over a few words — cheaper and allocation-free
	// compared to the map[uint64]struct{} they replace.
	wantEject sim.FIFO[uint64]
	reserved  []uint64

	// I-tag state: consecutive injection defeats of the head flit, and
	// whether this interface currently owns a circulating I-tag.
	// injectFails and starved lag behind while the station is parked;
	// CrossStation.settle brings them up to date.
	injectFails int
	itagArmed   bool
	// tagSlot is the slot carrying this interface's armed I-tag, so
	// releasing it is O(1) instead of a scan over every slot. An
	// interface arms at most one tag at a time (noteDefeat checks
	// itagArmed); slots never move, so the pointer stays valid.
	tagSlot *slot

	// swapMode is set by an RBRG-L2 in deadlock-resolution mode: each
	// ejection at this interface immediately hands the freed slot to the
	// inject-queue head (the paper's simultaneous ejection+injection
	// "swap"), overriding normal arbitration and I-tag reservations.
	swapMode bool

	// statistics
	Injected       uint64 // flits this interface put on a ring
	EjectedFlits   uint64
	EjectedPayload uint64 // payload bytes ejected here
	starved        uint64 // cycles with a blocked inject head (see Starved)
	Deflected      uint64 // arrivals bounced for lack of eject space
}

// Starved returns the number of cycles this interface's head was refused
// a slot, the cycles its station was parked through included.
func (ni *NodeInterface) Starved() uint64 {
	ni.station.settleNow()
	return ni.starved
}

// Node returns the attached device's node ID.
func (ni *NodeInterface) Node() NodeID { return ni.node }

// Station returns the owning cross station.
func (ni *NodeInterface) Station() *CrossStation { return ni.station }

// Ring returns the ring this interface sits on.
func (ni *NodeInterface) Ring() *Ring { return ni.station.ring }

// key is the I-tag reservation identity of this interface on its ring.
func (ni *NodeInterface) key() int { return ni.station.pos*2 + ni.index }

// InjectSpace returns how many more flits the inject queue accepts.
func (ni *NodeInterface) InjectSpace() int { return ni.inject.Cap() - ni.inject.Len() }

// InjectLen returns the current inject-queue depth.
func (ni *NodeInterface) InjectLen() int { return ni.inject.Len() }

// EjectLen returns the current eject-queue depth.
func (ni *NodeInterface) EjectLen() int { return ni.eject.Len() }

// Send enqueues a flit for injection onto this interface's ring. It
// returns false when the inject queue is full; the caller retries next
// cycle (that back-pressure is the device-side flow control). Send
// computes the flit's exit point on this ring — either its destination
// station or the bridge that leads towards the destination ring. A flit
// whose destination is unreachable (every bridge towards it failed) is
// accepted but immediately counted dropped, never queued: returning
// false would make the sender spin retrying a flit no topology change
// short of a repair can route.
func (ni *NodeInterface) Send(f *Flit) bool {
	if ni.inject.Len() >= ni.inject.Cap() {
		return false
	}
	if !ni.route(f) {
		return true // unroutable: counted and dropped, nothing queued
	}
	ni.inject.Push(f)
	ni.station.ring.queued++
	if ni.inject.Len() == 1 {
		ni.refreshHead()
	}
	return true
}

// SendAll sends q's flits in order until q is empty or Send refuses one,
// which stays at q's head for the next cycle: the way every device hands
// the fabric a backlog.
func (ni *NodeInterface) SendAll(q *sim.FIFO[*Flit]) {
	for q.Len() > 0 && ni.Send(q.Peek()) {
		q.Pop()
	}
}

// SendPriority enqueues a flit on the escape lane, ahead of the normal
// inject queue. Only deadlock-resolution machinery uses it; capacity is
// the reserved escape-lane depth. Unroutable flits are swallowed and
// counted as in Send.
func (ni *NodeInterface) SendPriority(f *Flit) bool {
	if ni.bypass.Len() >= ni.bypass.Cap() {
		return false
	}
	if !ni.route(f) {
		return true
	}
	ni.bypass.Push(f)
	ni.station.ring.queued++
	if ni.bypass.Len() == 1 {
		ni.refreshHead()
	}
	return true
}

// route validates and computes a flit's path on this interface's ring.
// It returns false when the destination is unreachable: the flit has
// been counted injected and dropped (UnroutableDrops) so the
// conservation invariant holds, and the caller must not queue it.
func (ni *NodeInterface) route(f *Flit) bool {
	if f == nil {
		panic("noc: Send(nil)")
	}
	if f.Dst == ni.node {
		panic(fmt.Sprintf("noc: node %d sending to itself", ni.node))
	}
	r := ni.station.ring
	net := r.net
	if !f.counted {
		f.counted = true
		f.Created = r.now
		net.InjectedFlits++
	}
	pos, iface, err := net.localTarget(r, f)
	if err != nil {
		net.dropFlit(f, &net.UnroutableDrops, nil, trace.Reroute, net.nodes[ni.node].name, err.Error())
		return false
	}
	f.localDst = int32(pos)
	f.localIface = int8(iface)
	f.dir = ni.station.ring.shortestDir(ni.station.pos, pos)
	return true
}

// Wake makes the device owning this interface tick at its next slot even
// if it reported itself idle. The network calls it on every ejection and
// when a full inject queue gives up a flit; a device that hands another
// device work outside the fabric (the serving orchestrator queueing a
// command on an engine) calls it on the receiver's interface.
func (ni *NodeInterface) Wake() {
	if ni.wake != nil {
		*ni.wake |= ni.wakeBit
	}
}

// Recv dequeues the oldest ejected flit, or nil. Draining the eject queue
// is what frees buffer entries for E-tag reservations.
func (ni *NodeInterface) Recv() *Flit {
	if ni.eject.Len() == 0 {
		return nil
	}
	f := ni.eject.Pop()
	ni.promoteReservations()
	return f
}

// Peek returns the oldest ejected flit without removing it.
func (ni *NodeInterface) Peek() *Flit {
	if ni.eject.Len() == 0 {
		return nil
	}
	return ni.eject.Peek()
}

// freeEjectEntries is the number of unreserved free eject entries.
func (ni *NodeInterface) freeEjectEntries() int {
	return ni.eject.Cap() - ni.eject.Len() - len(ni.reserved)
}

// promoteReservations converts freed eject capacity into reservations for
// deflected flits, oldest first — the E-tag of Section 4.1.2.
func (ni *NodeInterface) promoteReservations() {
	if !ni.station.ring.net.ETagEnabled {
		return
	}
	for ni.wantEject.Len() > 0 && ni.freeEjectEntries() > 0 {
		ni.reserved = append(ni.reserved, ni.wantEject.Pop())
	}
}

// dropReservation removes the flit ID's eject reservation if present.
func (ni *NodeInterface) dropReservation(id uint64) bool {
	for i, r := range ni.reserved {
		if r == id {
			last := len(ni.reserved) - 1
			ni.reserved[i] = ni.reserved[last]
			ni.reserved = ni.reserved[:last]
			return true
		}
	}
	return false
}

// wantsEject reports whether the flit ID is already registered for a
// future reservation.
func (ni *NodeInterface) wantsEject(id uint64) bool {
	for i := 0; i < ni.wantEject.Len(); i++ {
		if ni.wantEject.At(i) == id {
			return true
		}
	}
	return false
}

// tryEject attempts to take an arriving flit off the ring. A flit with a
// reservation always succeeds (consuming it); otherwise it needs a free
// unreserved entry. On failure the flit is registered for a future
// reservation and the caller deflects it.
func (ni *NodeInterface) tryEject(f *Flit) bool {
	if ni.dropReservation(f.ID) || ni.freeEjectEntries() > 0 {
		ni.eject.Push(f)
		ni.EjectedFlits++
		ni.EjectedPayload += uint64(f.PayloadBytes)
		// Ring ticks precede device ticks, so the owner runs this cycle.
		ni.Wake()
		return true
	}
	if !ni.wantsEject(f.ID) {
		ni.wantEject.Push(f.ID)
	}
	return false
}

// head returns the next flit to inject: escape-lane flits first, then
// the normal inject queue.
func (ni *NodeInterface) head() *Flit {
	if ni.bypass.Len() > 0 {
		return ni.bypass.Peek()
	}
	if ni.inject.Len() == 0 {
		return nil
	}
	return ni.inject.Peek()
}

// Head-summary codes (CrossStation.want): what an interface's head flit
// asks of its station. A ring-bound head's code is wantDir of its
// direction, so the codes of two interfaces OR to zero exactly when
// neither has a head.
const (
	wantNone  uint8 = 0
	wantLocal uint8 = 3 // addressed to this very station: a local transfer
)

// wantDir is the code of a head that wants a slot travelling in d.
func wantDir(d Direction) uint8 { return uint8(d) + 1 }

// headWant derives this interface's head-summary code from its queues.
func (ni *NodeInterface) headWant() uint8 {
	f := ni.head()
	switch {
	case f == nil:
		return wantNone
	case int(f.localDst) == ni.station.pos:
		return wantLocal
	}
	return wantDir(f.dir)
}

// refreshHead re-derives the station's summary of this interface's head,
// and with it the station's place in the visit set. Every site that can
// change which flit is the head, or where the head is going, calls it:
// Send and SendPriority when the push lands on an empty lane, popHead,
// and the four wholesale rewrites (live reroute, watchdog sweep,
// dead-bridge queue drop, checkpoint load). The station is settled first:
// the cycles it was parked through are owed to the heads as they were.
// Network.CheckConservation recounts all of it.
func (ni *NodeInterface) refreshHead() {
	st := ni.station
	st.settleNow()
	st.want[ni.index] = ni.headWant()
	st.classify()
}

// popHead removes the current head after a successful injection or local
// transfer. A pop from a full inject queue wakes the owner: a refused Send
// is the one thing it can have been waiting on, and ring ticks precede
// device ticks, so it sends again this cycle.
func (ni *NodeInterface) popHead() {
	ni.station.ring.queued--
	if ni.bypass.Len() > 0 {
		ni.bypass.Pop()
	} else {
		if ni.inject.Len() == ni.inject.Cap() {
			ni.Wake()
		}
		ni.inject.Pop()
		ni.injectFails = 0
	}
	ni.refreshHead()
}

// noteDefeat records an injection defeat for the head flit and arms an
// I-tag on the passing slot once the threshold is reached. A slot already
// reserved for someone else cannot be re-tagged; the interface simply
// waits for the next one.
func (ni *NodeInterface) noteDefeat(s *slot) {
	ni.injectFails++
	ni.starved++
	if s.itagOwner == noTag && !ni.itagArmed && ni.injectFails >= ITagThreshold {
		ni.arm(s)
	}
}

// arm reserves s for this interface, if I-tags are on. Out of line: it
// happens once per starvation episode, a defeat every cycle.
func (ni *NodeInterface) arm(s *slot) {
	if !ni.station.ring.net.ITagEnabled {
		return
	}
	s.itagOwner = ni.key()
	ni.itagArmed = true
	ni.tagSlot = s
	ni.station.classify() // nothing left to arm: the station may park
}

// releaseTags clears the circulating I-tag owned by this interface. The
// armed slot is remembered at arming time, so release is O(1); the
// ownership re-check makes a stale pointer (slot re-tagged by someone
// else after an external clear) harmless.
func (ni *NodeInterface) releaseTags() {
	if ni.tagSlot == nil {
		return
	}
	if ni.tagSlot.itagOwner == ni.key() {
		ni.tagSlot.itagOwner = noTag
	}
	ni.tagSlot = nil
}

// CrossStation is the ring access point of Figure 7(A): it carries
// on-the-fly traffic, ejects flits addressed to its (up to two) node
// interfaces and injects new flits into free slots, round-robin between
// interfaces, with on-the-fly flits always taking priority.
type CrossStation struct {
	ring   *Ring
	pos    int
	ifaces [2]*NodeInterface
	rr     int // round-robin pointer for injection arbitration
	// want summarises each interface's head flit (wantNone, wantDir of its
	// direction, or wantLocal), so a tick decides what there is to do from
	// this struct and the two slots without touching an interface, a queue
	// or a flit. Derived state: kept exact by NodeInterface.refreshHead,
	// never serialized, recomputed on load.
	want [2]uint8

	// stalledUntil freezes the station logic (fault injection): while
	// now < stalledUntil nothing ejects, injects or transfers locally —
	// flits fly past on the ring.
	stalledUntil sim.Cycle

	// lastVisit is the network tick (Network.ticks, not the ring's own
	// turn count: an idle-skipped ring's is stale) through which this
	// station's cycles are accounted for — visited, or credited by settle.
	// Derived state, never serialized: a load sets it to the loaded tick.
	lastVisit uint64
}

// settle credits the defeats of the cycles after lastVisit up to and
// including tick through, none of which visited the station. It was not
// in the visit set on any of them, so (classify) every head it has is
// ring-bound and could only lose to the occupied slot in front of it:
// one injectFails and one starved each per cycle, exactly what
// arbitrateInject would have counted, the way Ring.settleHops accounts
// hops. want is read as it is — callers that are about to change a head
// settle first. The forced-awake reference visits every station every
// cycle, so it never owes anything, and it does not take this
// arithmetic's word for that: there settle credits nothing.
func (st *CrossStation) settle(through uint64) {
	if through <= st.lastVisit || st.ring.net.forceAwake {
		return
	}
	missed := through - st.lastVisit
	st.lastVisit = through
	for i, w := range st.want {
		if w == wantDir(CW) || w == wantDir(CCW) {
			st.ifaces[i].injectFails += int(missed)
			st.ifaces[i].starved += missed
		}
	}
}

// settleNow settles the station through the last cycle whose station
// phase has passed it. Everything outside a ring tick that reads the lazy
// counters, or changes what settle reads, goes through it first.
func (st *CrossStation) settleNow() {
	if n := st.ring.net; st.lastVisit != n.ticks { // else settled, or being visited
		st.settle(n.sweptThrough(st))
	}
}

// classify re-derives the station's bits in its ring's stationSet (see
// stationWord) from the head summary, the interfaces' I-tag state and
// the stall. It runs wherever one of them changes: refreshHead (every
// disarming is followed by one), the arming in noteDefeat, StallStation,
// a checkpoint load, and — a stall ends by the clock — after every visit
// to a station that was ever stalled. Network.CheckConservation recounts
// it, so a site that went missing fails the fuzzers.
func (st *CrossStation) classify() {
	r := st.ring
	bit := uint64(1) << (uint(st.pos) & 63)
	var busy uint64
	var parked [2]uint64
	if r.now < st.stalledUntil {
		busy = bit
	}
	for i, w := range st.want {
		switch {
		case w == wantNone:
		case w == wantLocal:
			busy = bit
		case r.net.ITagEnabled && !st.ifaces[i].itagArmed:
			busy = bit // the next occupied slot may take this head's I-tag
		default:
			parked[w-wantDir(CW)] = bit
		}
	}
	set := &r.stationSet[st.pos>>6]
	set.busy = set.busy&^bit | busy
	set.parked[CW] = set.parked[CW]&^bit | parked[CW]
	set.parked[CCW] = set.parked[CCW]&^bit | parked[CCW]
}

// Ring returns the owning ring.
func (st *CrossStation) Ring() *Ring { return st.ring }

// Interface returns the node interface at index i (nil if unattached).
func (st *CrossStation) Interface(i int) *NodeInterface { return st.ifaces[i] }

// attach connects a device to the first free interface; stations carry at
// most two devices (Figure 7(A)), and a third is a wiring fault. The
// queues get their full storage up front and Send checks depth first, so
// they never reallocate.
func (st *CrossStation) attach(node NodeID, injectDepth, ejectDepth int) *NodeInterface {
	ni := &NodeInterface{
		node:    node,
		station: st,
		inject:  sim.NewFIFO[*Flit](injectDepth),
		eject:   sim.NewFIFO[*Flit](ejectDepth),
		bypass:  sim.NewFIFO[*Flit](bypassDepth),
	}
	ni.index = slices.Index(st.ifaces[:], nil)
	if ni.index < 0 {
		st.ring.net.fail("station at ring %d position %d already has two interfaces", st.ring.id, st.pos)
		return ni
	}
	st.ifaces[ni.index] = ni
	return ni
}

// tick processes the cycle for this station: local same-station
// transfers, then for each direction arrival handling (eject/deflect)
// followed by injection arbitration into the (possibly just freed) slot.
//
// Every test it makes reads this struct (the head summary) and the two
// slots at this position, resolved once; an interface, a queue or a flit
// is touched only by the handler a test lets through. So a station with
// no head and no flit in front of it costs the first test, a flit only
// passing costs no call, and a head is paid for only in the direction it
// wants.
func (st *CrossStation) tick(now sim.Cycle) {
	if now < st.stalledUntil {
		return
	}
	cw := st.ring.cw.at(st.pos)
	var ccw *slot
	if st.ring.full {
		ccw = st.ring.ccw.at(st.pos)
	}
	if st.want[0]|st.want[1] == wantNone && cw.flit == nil && (ccw == nil || ccw.flit == nil) {
		return
	}
	if st.want[0] == wantLocal || st.want[1] == wantLocal {
		st.localTransfers(now)
	}
	if cw.flit != nil && int(cw.dst) == st.pos {
		st.arrive(CW, cw, now)
	}
	if st.want[0] == wantDir(CW) || st.want[1] == wantDir(CW) {
		st.arbitrateInject(CW, cw)
	}
	if ccw != nil {
		if ccw.flit != nil && int(ccw.dst) == st.pos {
			st.arrive(CCW, ccw, now)
		}
		if st.want[0] == wantDir(CCW) || st.want[1] == wantDir(CCW) {
			st.arbitrateInject(CCW, ccw)
		}
	}
}

// localTransfers moves inject-queue heads addressed to this very station
// straight into the destination interface's eject queue, without touching
// the ring: co-located devices exchange traffic through the station's
// internal crossbar.
func (st *CrossStation) localTransfers(now sim.Cycle) {
	for i, ni := range st.ifaces {
		if st.want[i] != wantLocal {
			continue
		}
		f := ni.head()
		dst := st.ifaces[f.localIface]
		if dst == nil {
			panic(fmt.Sprintf("noc: flit %d addressed to missing interface %d at ring %d pos %d",
				f.ID, f.localIface, st.ring.id, st.pos))
		}
		if dst.tryEject(f) {
			ni.popHead()
			st.ring.net.flitEjected(dst, f, now)
		}
	}
}

// arrive takes the flit in s, which gets off at this station, into its
// interface's eject queue, or deflects it for another lap.
func (st *CrossStation) arrive(d Direction, s *slot, now sim.Cycle) {
	f := s.flit
	dst := st.ifaces[f.localIface]
	if dst == nil {
		panic(fmt.Sprintf("noc: flit %d addressed to missing interface %d at ring %d pos %d",
			f.ID, f.localIface, st.ring.id, st.pos))
	}
	if !dst.tryEject(f) {
		f.Deflections++
		dst.Deflected++
		st.ring.net.Deflections++
		st.ring.net.Trace(traceDeflect, f.ID, st.ring.net.nodes[dst.node].name, "")
		return
	}
	st.ring.loopFor(d).vacate(s, st.pos)
	st.ring.settleHops(f)
	st.ring.net.flitEjected(dst, f, now)
	if dst.swapMode && st.want[dst.index] == wantDir(d) {
		st.inject(dst, s, d) // the slot now carries dst's former head
		st.ring.net.Trace(traceSwap, s.flit.ID, st.ring.net.nodes[dst.node].name, "")
	}
}

// arbitrateInject implements the priority rules of Section 4.1.1: the
// on-the-fly flit (slot occupant) always wins; an I-tagged free slot only
// admits its owner; otherwise the two interfaces' new flits are selected
// round-robin.
func (st *CrossStation) arbitrateInject(d Direction, s *slot) {
	// Collect interfaces whose head flit wants this direction; the caller
	// has checked there is at least one.
	var cand [2]*NodeInterface
	n := 0
	for i := 0; i < 2; i++ {
		k := st.rr ^ i // rr is 0 or 1, so ^i is the round-robin order
		if st.want[k] == wantDir(d) {
			cand[n] = st.ifaces[k]
			n++
		}
	}
	if s.flit != nil {
		// Occupied slot: everyone loses to the on-the-fly flit.
		for i := 0; i < n; i++ {
			cand[i].noteDefeat(s)
		}
		return
	}
	// Congestion throttle: forfeit a fraction of opportunities while the
	// network-wide deflection rate is high (source pacing).
	if st.ring.net.throttleSkip(cand[0]) {
		return
	}
	if s.itagOwner != noTag {
		// Reserved free slot: only the owner may take it.
		for i := 0; i < n; i++ {
			if cand[i].key() == s.itagOwner {
				st.inject(cand[i], s, d)
				return
			}
		}
		for i := 0; i < n; i++ {
			cand[i].noteDefeat(s)
		}
		return
	}
	winner := cand[0]
	st.inject(winner, s, d)
	for i := 1; i < n; i++ {
		cand[i].noteDefeat(s)
	}
}

// inject puts the interface's head flit into the (free) slot, releasing
// the I-tag if this injection consumed the interface's reservation.
func (st *CrossStation) inject(ni *NodeInterface, s *slot, d Direction) {
	f := ni.head()
	st.ring.loopFor(d).board(s, st.pos, f)
	f.boarded = st.ring.now
	if s.itagOwner == ni.key() {
		s.itagOwner = noTag
		if ni.tagSlot == s {
			ni.tagSlot = nil
		}
	}
	if ni.itagArmed {
		// The successful injection ends the starvation episode; if the
		// interface's tag is still circulating on a different slot,
		// release it so the slot does not stay reserved forever.
		ni.itagArmed = false
		ni.releaseTags()
	}
	ni.popHead()
	ni.Injected++
	st.rr = (ni.index + 1) % 2
	st.ring.net.Trace(traceInject, f.ID, st.ring.net.nodes[ni.node].name, "")
}
