// Checkpoint/resume for the NoC layer: a full, deterministic
// serialization of every piece of mutable simulator state — ring slot
// arrays and their virtual-rotation head offsets, station and interface
// queues, I-tag/E-tag reservations, bridge buffers, fault state and all
// statistics counters — into the sim snapshot codec.
//
// Every struct has ONE walk over its state, driven in either direction
// by a sim.Codec (see DESIGN.md §8 "State walk"): the same line saves a
// field and loads it, so encode order cannot drift from restore order.
//
// Derived state (route tables, bridge forwarding tables, the dense
// stationAt index, the flit and message free-lists) is deliberately NOT
// serialized: it is a pure function of topology plus the failed-bridge
// set and is rebuilt on restore. That keeps snapshots small and makes version skew
// in routing internals impossible — a resumed run recomputes routes the
// same way a fresh run does.
//
// Pointer identity is load-bearing: one *chi.Message is simultaneously
// held by a requester's transaction tracker, carried in a flit's Msg
// field, and queued in a memory controller. The Snap pools preserve that
// aliasing: the first walk of an object carries its contents, later
// walks a back-reference, and restore rebuilds the exact sharing graph.
package noc

import (
	"cmp"
	"fmt"

	"chipletnoc/internal/sim"
)

// Reference tags for pooled objects (flits and upper-layer messages).
const (
	snapNil = 0 // no object
	snapNew = 1 // first occurrence: contents follow
	snapRef = 2 // back-reference: pool index follows
)

// MaxNameBytes bounds the network and device names a snapshot carries,
// saving and loading; a builder of untrusted specs holds names to it.
const MaxNameBytes = 256

// StateSnapshotter is implemented by devices that support checkpointing.
// A network with any device that does not implement it cannot be
// snapshotted (SnapState returns an error) — that cleanly excludes runs
// driven by non-resumable machinery rather than silently dropping state.
// SnapState walks the device's mutable state through s, saving or
// loading; failures are recorded on s (Fail) and surface from s.Err.
type StateSnapshotter interface {
	SnapState(s *Snap)
}

// MsgCodec serializes one concrete type of upper-layer message carried
// in Flit.Msg. Protocol packages register their codec at init time (the
// NoC cannot import them).
type MsgCodec struct {
	ID byte // stable wire tag for this message type
	// Ref returns m's pool mark, or nil when m is not of this codec's
	// type: the type test and the identity lookup in one call. The mark is
	// a uint32 the message type keeps for the state walk and never touches
	// itself (see Snap).
	Ref  func(m interface{}) *uint32
	New  func() interface{}           // an empty message to load into
	Walk func(s *Snap, m interface{}) // the message's state walk
	// Carries reports whether a flit to dst may carry m, and OneTrip
	// whether m may be referenced once only; a load that breaks either
	// is refused. Nil: any.
	Carries func(m interface{}, dst NodeID) bool
	OneTrip func(m interface{}) bool
}

var msgCodecs []MsgCodec

// RegisterMsgCodec adds a message codec; duplicate IDs are a programming
// error caught at init.
func RegisterMsgCodec(c MsgCodec) {
	for _, old := range msgCodecs {
		if old.ID == c.ID {
			panic(fmt.Sprintf("noc: duplicate msg codec ID %d", c.ID))
		}
	}
	msgCodecs = append(msgCodecs, c)
}

// Snap is a state walk in progress: the field codec plus the identity
// pools that let flits and messages referenced from several places
// travel once. Both pools hold the objects the walk has met, in walk
// order; an object's place in its pool is its wire index. Saving, an
// object finds its own place through its pool mark — 1 + that index
// while the walk is under way, 0 outside one — and End clears the mark
// of everything pooled. Every walk ends with End, Network.SnapState's
// included.
type Snap struct {
	*sim.Codec
	net   *Network // whose nodes a loaded id must name; nil vouches for any
	flits pool[*Flit]
	msgs  pool[interface{}]
}

// NodeRole is what a loaded node id must name: any node, an endpoint —
// flits are sent from and to it, so never a bridge (a multi-ring node),
// which sends on whatever it receives — or a bridge.
type NodeRole uint8

const (
	AnyNode NodeRole = iota
	Endpoint
	Bridge
)

// Node walks a node id; loaded, it must name a node of the network in
// role, or the load fails before anything can index with it.
func (s *Snap) Node(id *NodeID, role NodeRole, what string) {
	sim.Int(s.Codec, id)
	if s.Loading() && !s.Plays(*id, role) {
		s.Fail("%s %d is not a node of role %d", what, *id, role)
	}
}

// Plays reports whether id names a node of the network in role.
func (s *Snap) Plays(id NodeID, role NodeRole) bool {
	if s.net == nil {
		return true
	}
	if id < 0 || int(id) >= len(s.net.nodes) {
		return false
	}
	return role == AnyNode || (len(s.net.nodes[id].ifaces) > 1) == (role == Bridge)
}

// NewSnap wraps c with empty pools.
func NewSnap(c *sim.Codec) *Snap {
	return &Snap{Codec: c}
}

// End finishes a walk, failed or not: it clears the pool mark of every
// flit and message the walk met and empties the pools, keeping their
// chunks for the next walk, so no mark stays set and no flit or message
// stays referenced from here.
func (s *Snap) End() {
	s.Codec = nil
	s.flits.reset(func(f *Flit) { f.mark = 0 })
	s.msgs.reset(func(m interface{}) {
		if _, mark := msgCodecFor(m); mark != nil {
			*mark = 0
		}
	})
}

// poolChunk is the number of objects in one chunk of a walk's pool.
const poolChunk = 1 << 10

// pool holds the objects a walk has met, in walk order, in chunks of
// poolChunk: it grows by adding a chunk, never by copying, and keeps its
// chunks between walks.
type pool[T comparable] struct {
	chunks [][]T
	n      int
}

// add appends v and returns its mark, 1 + its index.
func (p *pool[T]) add(v T) uint32 {
	if p.n/poolChunk == len(p.chunks) {
		p.chunks = append(p.chunks, make([]T, poolChunk))
	}
	p.chunks[p.n/poolChunk][p.n%poolChunk] = v
	p.n++
	return uint32(p.n)
}

// at returns the object at index i < n.
func (p *pool[T]) at(i uint32) T { return p.chunks[i/poolChunk][i%poolChunk] }

// holds reports whether mark is v's place in the pool. A mark is trusted
// only when the pool agrees, so one left set by a walk that was never
// ended cannot forge a back-reference.
func (p *pool[T]) holds(mark uint32, v T) bool {
	return mark != 0 && int(mark) <= p.n && p.at(mark-1) == v
}

// reset hands every pooled object to unmark and empties the pool,
// keeping its chunks.
func (p *pool[T]) reset(unmark func(T)) {
	for _, c := range p.chunks {
		if p.n == 0 {
			return
		}
		c = c[:min(p.n, poolChunk)]
		for _, v := range c {
			unmark(v)
		}
		clear(c)
		p.n -= len(c)
	}
}

// ref walks a pooled reference's tag and back-reference index. Saving,
// the caller passes what the object's mark says; loading, both come back
// from the bytes with the index checked against known, the number of
// objects loaded so far.
func (s *Snap) ref(tag uint8, idx uint32, known int, what string) (uint8, uint32) {
	s.U8(&tag)
	switch tag {
	case snapNil, snapNew:
	case snapRef:
		s.U32(&idx)
		if s.Loading() && int(idx) >= known {
			s.Fail("%s back-reference %d out of range (%d known)", what, idx, known)
			return snapNil, 0
		}
	default:
		s.Fail("invalid %s reference tag", what)
		return snapNil, 0
	}
	return tag, idx
}

// Msg walks an upper-layer message by identity: nil, a back-reference,
// or codec tag + contents on first sight. Saving a message type with no
// registered codec fails the walk (the run is not checkpointable) and
// leaves *mp as it was: saving never writes through mp.
func (s *Snap) Msg(mp *interface{}) {
	var tag, id uint8
	var idx uint32
	var mc *MsgCodec
	if m := *mp; !s.Loading() && m != nil {
		var mark *uint32
		if mc, mark = msgCodecFor(m); mc == nil {
			s.Fail("noc: no snapshot codec for message type %T", m)
		} else if s.msgs.holds(*mark, m) {
			tag, idx = snapRef, *mark-1
		} else {
			tag, id = snapNew, mc.ID
			*mark = s.msgs.add(m)
		}
	}
	tag, idx = s.ref(tag, idx, s.msgs.n, "msg")
	switch {
	case !s.Loading():
		if tag == snapNew {
			s.U8(&id)
			mc.Walk(s, *mp)
		}
	case tag == snapNil:
		*mp = nil
	case tag == snapRef:
		*mp = s.msgs.at(idx)
		if mc, _ = msgCodecFor(*mp); s.Err() == nil && mc.OneTrip != nil && mc.OneTrip(*mp) {
			s.Fail("one-trip message referenced twice")
		}
	case tag == snapNew:
		s.U8(&id)
		if mc = msgCodecByID(id); mc == nil {
			s.Fail("unknown msg codec ID %d", id)
			*mp = nil
			return
		}
		*mp = mc.New()
		s.msgs.add(*mp)
		mc.Walk(s, *mp)
	}
}

// msgCodecFor returns the registered codec for m's type and m's pool
// mark, or nils.
func msgCodecFor(m interface{}) (*MsgCodec, *uint32) {
	for i := range msgCodecs {
		if mark := msgCodecs[i].Ref(m); mark != nil {
			return &msgCodecs[i], mark
		}
	}
	return nil, nil
}

// msgCodecByID returns the registered codec with wire tag id, or nil.
func msgCodecByID(id byte) *MsgCodec {
	for i := range msgCodecs {
		if msgCodecs[i].ID == id {
			return &msgCodecs[i]
		}
	}
	return nil
}

// Flit walks a flit by identity: contents on first sight, a pool
// back-reference afterwards. Saving never writes through fp. Loaded
// flits are fresh allocations — never drawn from the network free-list,
// which restore resets — so resumed runs recycle flits in the same order
// a fresh run would from this point on.
func (s *Snap) Flit(fp **Flit) {
	var tag uint8
	var idx uint32
	if f := *fp; !s.Loading() && f != nil {
		if s.flits.holds(f.mark, f) {
			tag, idx = snapRef, f.mark-1
		} else {
			tag = snapNew
			f.mark = s.flits.add(f)
		}
	}
	tag, idx = s.ref(tag, idx, s.flits.n, "flit")
	switch {
	case !s.Loading():
		if tag == snapNew {
			(*fp).snapState(s)
		}
	case tag == snapNil:
		*fp = nil
	case tag == snapRef:
		*fp = s.flits.at(idx)
	case tag == snapNew:
		*fp = &Flit{}
		s.flits.add(*fp)
		(*fp).snapState(s)
	}
}

// snapState walks one flit's contents.
func (f *Flit) snapState(s *Snap) {
	c := s.Codec
	c.U64(&f.ID)
	s.Node(&f.Src, Endpoint, "flit source")
	s.Node(&f.Dst, Endpoint, "flit destination")
	if s.net != nil && f.Src == f.Dst {
		c.Fail("flit %d sent from %d to itself", f.ID, f.Dst)
	}
	sim.Int(c, &f.Kind)
	sim.Int(c, &f.PayloadBytes)
	sim.Uint(c, &f.Created)
	sim.Int(c, &f.Hops)
	sim.Int(c, &f.Deflections)
	sim.Int(c, &f.RingChanges)
	c.Bool(&f.Corrupted)
	sim.Int(c, &f.localDst)
	sim.Int(c, &f.localIface)
	dir := uint8(f.dir)
	c.U8(&dir)
	if dir > 1 {
		c.Fail("invalid flit direction %d", dir)
	}
	f.dir = Direction(dir)
	c.Bool(&f.counted)
	sim.Uint(c, &f.boarded)
	s.Msg(&f.Msg)
	if !s.Loading() || c.Err() != nil {
		return
	}
	if mc, _ := msgCodecFor(f.Msg); mc != nil && mc.Carries != nil && !mc.Carries(f.Msg, f.Dst) {
		c.Fail("flit %d to %d cannot carry its message", f.ID, f.Dst)
	}
}

// Flits walks a flit queue of at most max entries, none nil.
func (s *Snap) Flits(q *sim.FIFO[*Flit], max int) {
	sim.WalkFIFO(s.Codec, q, max, func(fp **Flit) {
		s.Flit(fp)
		if *fp == nil {
			s.Fail("nil flit in a buffer")
		}
	})
}

// SnapState walks the network's complete mutable state through c, saving
// or loading into an identically built network. The one order: global
// scalars and counters, fault state, then every ring (slots in logical
// position order, then stations), then every device in registration
// order. Any mismatch or malformed input returns an error; the network
// may be partially restored on failure and must be discarded.
func (n *Network) SnapState(c *sim.Codec) error {
	if !n.finalized {
		return fmt.Errorf("noc: snapshot of non-finalized network")
	}
	// Slots travel in logical position order and defeat counts complete:
	// rings the gate skipped catch up first, stations it parked are
	// settled, so the bytes do not depend on what was skipped.
	n.syncRings()
	if !c.Loading() {
		n.settleStations()
	}
	s := &n.snap
	s.Codec, s.net = c, n
	defer s.End()
	c.MatchString(n.name, MaxNameBytes, "network name")
	c.Match(len(n.rings), "ring count")
	c.Match(len(n.nodes), "node count")
	c.Match(len(n.devices), "device count")
	if err := c.Err(); err != nil {
		return err
	}

	if c.Loading() {
		// What this process ran so far is published before the restore
		// moves the clock; noted is rebased on the restored clock below.
		n.PublishEngineStats()
	}
	sim.Uint(c, &n.now)
	c.U64(&n.ticks)
	c.Match(len(n.flitSeq), "flit sequence count")
	for i := range n.flitSeq {
		c.U64(&n.flitSeq[i])
	}
	c.Bool(&n.ITagEnabled)
	c.Bool(&n.ETagEnabled)
	c.U64(&n.watchdogBudget)
	c.U64(&n.watchdogPeriod)
	// SetWatchdog never arms a budget without a scan period, and
	// cycleTail divides by the period.
	if n.watchdogBudget > 0 && n.watchdogPeriod == 0 {
		c.Fail("watchdog armed (budget %d) with scan period 0", n.watchdogBudget)
	}

	c.U64(&n.InjectedFlits)
	c.U64(&n.DeliveredFlits)
	c.U64(&n.DeliveredBytes)
	c.U64(&n.Deflections)
	c.U64(&n.TotalHops)
	c.U64(&n.DroppedFlits)
	c.U64(&n.WatchdogDrops)
	c.U64(&n.UnroutableDrops)
	c.U64(&n.FaultDrops)
	c.U64(&n.CorruptDrops)
	c.U64(&n.ReroutedFlits)

	c.MatchBool(n.throttle != nil, "throttle presence")
	if t := n.throttle; t != nil && c.Err() == nil {
		c.U64(&t.windowStart)
		c.U64(&t.deflectStart)
		c.Bool(&t.congested)
		c.U64(&t.opportunitySeq)
	}

	hadFailed := len(n.failed) != 0
	sim.Map(c, &n.failed, len(n.nodes), cmp.Less[NodeID], func(id *NodeID, down *bool) {
		s.Node(id, Bridge, "failed node") // only a bridge fails
		*down = true
	})
	if err := c.Err(); err != nil {
		return err
	}
	if c.Loading() {
		// Wake state is derived, never serialized: everything ticks once
		// and reports its own idleness from the restored state.
		n.wakeAll()
		// The restored clock is not work this process did.
		n.noted = n.engineStats()
		// The free-lists are derived host-side state: a resumed process
		// starts with empty pools, exactly like the fresh run did at
		// cycle 0.
		n.freeFlits, n.freeMsgs = nil, nil
		// Routing tables are pure functions of topology + failure set;
		// rebuild rather than deserialize. Live flits already carry their
		// (snapshotted) routes, so no reroute pass runs here.
		if hadFailed || len(n.failed) != 0 {
			n.rebuildRoutes()
		}
	}

	for _, r := range n.rings {
		r.snapState(s)
		if err := c.Err(); err != nil {
			return err
		}
	}

	for _, dev := range n.devices {
		c.MatchString(dev.Name(), MaxNameBytes, "device name")
		ss, ok := dev.(StateSnapshotter)
		if !ok {
			return fmt.Errorf("noc: device %q (%T) does not support checkpointing", dev.Name(), dev)
		}
		ss.SnapState(s)
		if err := c.Err(); err != nil {
			return fmt.Errorf("noc: device %q: %w", dev.Name(), err)
		}
	}
	return c.Err()
}

// checkExit checks the exit a live flit on ring r carries before
// anything indexes with it: a position on the ring, with a station and
// the addressed interface there.
func (r *Ring) checkExit(s *Snap, f *Flit, what string, i int) {
	if f == nil {
		return
	}
	if f.localDst < 0 || int(f.localDst) >= r.positions || f.localIface < 0 || f.localIface > 1 {
		s.Fail("%s %d flit exit %d/%d out of range", what, i, f.localDst, f.localIface)
	} else if st := r.stationAt[f.localDst]; st == nil || st.ifaces[f.localIface] == nil {
		s.Fail("%s %d flit exit %d/%d has no interface", what, i, f.localDst, f.localIface)
	}
}

// snapState walks one ring: both loops' slots in logical position order,
// then every station. A loaded loop's head resets to zero — rotation is
// virtual, so slots restored in logical order at head 0 reproduce the
// identical logical state regardless of where the head was at snapshot
// time.
func (r *Ring) snapState(s *Snap) {
	c := s.Codec
	c.Match(r.positions, "ring positions")
	c.MatchBool(r.full, "ring fullness")
	c.Match(len(r.stations), "station count")
	if c.Err() != nil {
		return
	}
	if c.Loading() {
		// Ring-local clocks track the network clock at every run
		// boundary; re-sync them so ring-local timestamps are correct from
		// the first restored cycle. Loops load fully caught up.
		r.now, r.turned = r.net.now, r.net.ticks
	}
	loops := []*loop{&r.cw, &r.ccw}
	if !r.full {
		loops = loops[:1]
	}
	for _, l := range loops {
		if c.Loading() {
			l.reset()
		}
		for p := 0; p < r.positions; p++ {
			sl := l.at(p)
			f := sl.flit
			s.Flit(&f)
			sim.Int(c, &sl.itagOwner)
			if sl.itagOwner != noTag && (sl.itagOwner < 0 || sl.itagOwner >= r.positions*2) {
				c.Fail("slot %d I-tag owner %d out of range", p, sl.itagOwner)
			}
			r.checkExit(s, f, "slot", p)
			if c.Err() != nil {
				return
			}
			if c.Loading() && f != nil {
				l.board(sl, p, f)
			}
		}
	}
	for _, st := range r.stations {
		st.snapState(s)
	}
	if c.Loading() {
		r.queued = r.countQueued()
	}
}

// slotRef locates a slot within the ring's loops, returning its
// direction tag (1 = CW, 2 = CCW) and logical position.
func (r *Ring) slotRef(s *slot) (uint8, int, bool) {
	for p := 0; p < r.positions; p++ {
		if r.cw.at(p) == s {
			return 1, p, true
		}
	}
	if r.full {
		for p := 0; p < r.positions; p++ {
			if r.ccw.at(p) == s {
				return 2, p, true
			}
		}
	}
	return 0, 0, false
}

// snapState walks one station and its attached interfaces.
func (st *CrossStation) snapState(s *Snap) {
	c := s.Codec
	c.Match(st.pos, "station position")
	if c.Loading() {
		// Nothing is owed for cycles that ran in another process.
		st.lastVisit = st.ring.net.ticks
	}
	rr := uint8(st.rr)
	c.U8(&rr)
	if rr > 1 {
		c.Fail("station round-robin pointer %d out of range", rr)
	}
	st.rr = int(rr)
	sim.Uint(c, &st.stalledUntil)
	for _, ni := range st.ifaces {
		c.MatchBool(ni != nil, "interface presence")
		if ni != nil && c.Err() == nil {
			ni.snapState(s)
		}
	}
	if c.Loading() {
		st.classify() // the stall, and a station without interfaces
	}
}

// snapState walks one node interface: the three queues, E-tag and I-tag
// state, swap mode and per-interface counters.
func (ni *NodeInterface) snapState(s *Snap) {
	c := s.Codec
	r := ni.station.ring
	for _, q := range []*sim.FIFO[*Flit]{&ni.inject, &ni.eject, &ni.bypass} {
		c.Match(q.Cap(), "queue capacity")
		s.Flits(q, q.Cap())
		// Queued-for-injection flits carry routes computed at Send time;
		// ejected flits' local fields are dead.
		for i := 0; q != &ni.eject && i < q.Len(); i++ {
			f := q.At(i)
			r.checkExit(s, f, "queue entry", i)
			if f != nil && f.dir == CCW && !r.full {
				c.Fail("queue entry %d flit wants the missing CCW loop", i)
			}
		}
	}
	sim.WalkFIFO(c, &ni.wantEject, 1<<20, func(id *uint64) { c.U64(id) })
	sim.Slice(c, &ni.reserved, 1<<20)
	for i := range ni.reserved {
		c.U64(&ni.reserved[i])
	}
	sim.Int(c, &ni.injectFails)
	c.Bool(&ni.itagArmed)

	// The armed I-tag's slot is a pointer in memory and a (loop, logical
	// position) pair on the wire: 0 = none, 1 = CW, 2 = CCW.
	var tag uint8
	var pos uint32
	if !c.Loading() && ni.tagSlot != nil {
		t, p, ok := r.slotRef(ni.tagSlot)
		if !ok {
			c.Fail("noc: interface %d I-tag slot not found on its ring", ni.node)
		}
		tag, pos = t, uint32(p)
	}
	c.U8(&tag)
	if tag != 0 {
		c.U32(&pos)
	}
	if c.Loading() {
		ni.tagSlot = nil
		switch {
		case tag == 0:
		case tag > 2:
			c.Fail("invalid I-tag slot tag %d", tag)
		case pos >= uint32(r.positions):
			c.Fail("I-tag slot position %d out of range", pos)
		case tag == 2 && !r.full:
			c.Fail("I-tag slot on missing CCW loop")
		case tag == 2:
			ni.tagSlot = r.ccw.at(int(pos))
		default:
			ni.tagSlot = r.cw.at(int(pos))
		}
	}
	c.Bool(&ni.swapMode)
	c.U64(&ni.Injected)
	c.U64(&ni.EjectedFlits)
	c.U64(&ni.EjectedPayload)
	c.U64(&ni.starved)
	c.U64(&ni.Deflected)
	if c.Loading() && c.Err() == nil { // a refused head's direction may index nothing
		ni.refreshHead()
	}
}

// SnapState walks the L1 bridge: DRM/escape state per half plus the
// bridge counters. (The attached interfaces travel with their stations.)
func (b *RBRGL1) SnapState(s *Snap) {
	c := s.Codec
	c.Bool(&b.dead)
	c.U64(&b.Forwarded)
	c.U64(&b.SwapEntries)
	c.U64(&b.SwapRescues)
	c.Match(len(b.halves), "bridge half count")
	for _, h := range b.halves {
		s.Flits(&h.escape, 1<<16)
		c.Bool(&h.drm)
		sim.Int(c, &h.stalledCycles)
		sim.Int(c, &h.blockedCycles)
		c.U64(&h.lastInjectSeen)
		c.U64(&h.lastDeflectSeen)
	}
}

// SnapState walks the L2 bridge: tx/reserve/pipe/rx buffers, credit
// windows and in-flight credit pulses, DRM state and counters, all per
// half. A save first takes the pulses that landed before the clock, as
// the every-cycle bridge has, so a half that slept through a landing
// saves the same windows; a load refuses a pulse that landed before it.
func (b *RBRGL2) SnapState(s *Snap) {
	c := s.Codec
	window := b.cfg.txWindow() + b.cfg.escWindow()
	for side := range b.half {
		h := &b.half[side]
		if !c.Loading() {
			h.takeCredits(sim.Cycle(b.net.ticks))
		}
		c.Bool(&h.dead)
		c.U64(&h.transferred)
		c.U64(&h.swapEntries)
		c.U64(&h.swapRescues)
		s.Flits(&h.tx, b.cfg.TxDepth)
		s.Flits(&h.reserve, 1<<16)
		s.Flits(&h.rx, b.cfg.RxDepth)
		sim.WalkFIFO(c, &h.pipe, window, func(p *pipeFlit) {
			s.Flit(&p.f)
			sim.Uint(c, &p.arrives)
			c.Bool(&p.escape)
			if p.f == nil {
				c.Fail("nil flit in the bridge pipe")
			}
		})
		sim.Int(c, &h.txCred)
		sim.Int(c, &h.escCred)
		sim.WalkFIFO(c, &h.credIn, window, func(p *credPulse) {
			sim.Uint(c, &p.arrives)
			sim.Int(c, &p.norm)
			sim.Int(c, &p.esc)
			if c.Loading() && p.arrives < sim.Cycle(b.net.ticks) {
				c.Fail("credit pulse landed at %d, before the clock %d", p.arrives, b.net.ticks)
			}
		})
		c.Bool(&h.drm)
		sim.Int(c, &h.stalledCycles)
		c.U64(&h.lastInjectSeen)
	}
}
