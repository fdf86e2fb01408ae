// Checkpoint/resume for the NoC layer: a full, deterministic
// serialization of every piece of mutable simulator state — ring slot
// arrays and their virtual-rotation head offsets, station and interface
// queues, I-tag/E-tag reservations, bridge buffers, fault state and all
// statistics counters — into the sim snapshot codec.
//
// Derived state (route tables, bridge forwarding tables, the dense
// stationAt index, the flit free-list) is deliberately NOT serialized:
// it is a pure function of topology plus the failed-bridge set and is
// rebuilt on restore. That keeps snapshots small and makes version skew
// in routing internals impossible — a resumed run recomputes routes the
// same way a fresh run does.
//
// Pointer identity is load-bearing: one *chi.Message is simultaneously
// held by a requester's transaction tracker, carried in a flit's Msg
// field, and queued in a memory controller. The SnapEncoder/SnapDecoder
// pools preserve that aliasing: the first encode of an object writes its
// contents, later encodes write a back-reference, and restore rebuilds
// the exact sharing graph.
package noc

import (
	"fmt"

	"chipletnoc/internal/sim"
)

// Reference tags for pooled objects (flits and upper-layer messages).
const (
	snapNil = 0 // no object
	snapNew = 1 // first occurrence: contents follow
	snapRef = 2 // back-reference: pool index follows
)

// maxSnapName bounds device/network name strings in snapshots.
const maxSnapName = 256

// StateSnapshotter is implemented by devices that support checkpointing.
// A network with any device that does not implement it cannot be
// snapshotted (Snapshot returns an error) — that cleanly excludes runs
// driven by non-resumable machinery rather than silently dropping state.
type StateSnapshotter interface {
	SnapshotState(*SnapEncoder) error
	RestoreState(*SnapDecoder) error
}

// MsgCodec serializes one concrete type of upper-layer message carried
// in Flit.Msg. Protocol packages register their codec at init time (the
// NoC cannot import them).
type MsgCodec struct {
	ID      byte // stable wire tag for this message type
	Matches func(m interface{}) bool
	Encode  func(se *SnapEncoder, m interface{})
	Decode  func(sd *SnapDecoder) interface{}
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

// SnapEncoder wraps the byte encoder with the identity pools.
type SnapEncoder struct {
	E     *sim.Encoder
	flits map[*Flit]uint32
	msgs  map[interface{}]uint32
}

// NewSnapEncoder wraps e with empty pools.
func NewSnapEncoder(e *sim.Encoder) *SnapEncoder {
	return &SnapEncoder{E: e, flits: make(map[*Flit]uint32), msgs: make(map[interface{}]uint32)}
}

// SnapDecoder wraps the byte decoder with the identity pools.
type SnapDecoder struct {
	D     *sim.Decoder
	flits []*Flit
	msgs  []interface{}
}

// NewSnapDecoder wraps d with empty pools.
func NewSnapDecoder(d *sim.Decoder) *SnapDecoder {
	return &SnapDecoder{D: d}
}

// PutMsg encodes an upper-layer message by identity: nil, a
// back-reference, or tag + contents on first sight. A message type with
// no registered codec is an error (the run is not checkpointable).
func (se *SnapEncoder) PutMsg(m interface{}) error {
	if m == nil {
		se.E.PutU8(snapNil)
		return nil
	}
	if idx, ok := se.msgs[m]; ok {
		se.E.PutU8(snapRef)
		se.E.PutU32(idx)
		return nil
	}
	for _, c := range msgCodecs {
		if c.Matches(m) {
			se.E.PutU8(snapNew)
			se.E.PutU8(c.ID)
			se.msgs[m] = uint32(len(se.msgs))
			c.Encode(se, m)
			return nil
		}
	}
	return fmt.Errorf("noc: no snapshot codec for message type %T", m)
}

// GetMsg decodes a message reference written by PutMsg.
func (sd *SnapDecoder) GetMsg() interface{} {
	switch sd.D.U8() {
	case snapNil:
		return nil
	case snapRef:
		idx := int(sd.D.U32())
		if sd.D.Err() != nil {
			return nil
		}
		if idx >= len(sd.msgs) {
			sd.D.Fail("msg back-reference %d out of range (%d known)", idx, len(sd.msgs))
			return nil
		}
		return sd.msgs[idx]
	case snapNew:
		id := sd.D.U8()
		if sd.D.Err() != nil {
			return nil
		}
		for _, c := range msgCodecs {
			if c.ID == id {
				m := c.Decode(sd)
				sd.msgs = append(sd.msgs, m)
				return m
			}
		}
		sd.D.Fail("unknown msg codec ID %d", id)
		return nil
	default:
		sd.D.Fail("invalid msg reference tag")
		return nil
	}
}

// PutFlit encodes a flit by identity: contents on first sight, a pool
// back-reference afterwards.
func (se *SnapEncoder) PutFlit(f *Flit) error {
	if f == nil {
		se.E.PutU8(snapNil)
		return nil
	}
	if idx, ok := se.flits[f]; ok {
		se.E.PutU8(snapRef)
		se.E.PutU32(idx)
		return nil
	}
	se.E.PutU8(snapNew)
	se.flits[f] = uint32(len(se.flits))
	e := se.E
	e.PutU64(f.ID)
	e.PutI64(int64(f.Src))
	e.PutI64(int64(f.Dst))
	e.PutI64(int64(f.Kind))
	e.PutI64(int64(f.PayloadBytes))
	e.PutU64(uint64(f.Created))
	e.PutI64(int64(f.Hops))
	e.PutI64(int64(f.Deflections))
	e.PutI64(int64(f.RingChanges))
	e.PutBool(f.Corrupted)
	e.PutI64(int64(f.localDst))
	e.PutI64(int64(f.localIface))
	e.PutU8(uint8(f.dir))
	e.PutBool(f.counted)
	e.PutU64(uint64(f.boarded))
	return se.PutMsg(f.Msg)
}

// GetFlit decodes a flit reference written by PutFlit. Restored flits
// are fresh allocations — never drawn from the network free-list, which
// restore resets — so resumed runs recycle flits in the same order a
// fresh run would from this point on.
func (sd *SnapDecoder) GetFlit() *Flit {
	d := sd.D
	switch d.U8() {
	case snapNil:
		return nil
	case snapRef:
		idx := int(d.U32())
		if d.Err() != nil {
			return nil
		}
		if idx >= len(sd.flits) {
			d.Fail("flit back-reference %d out of range (%d known)", idx, len(sd.flits))
			return nil
		}
		return sd.flits[idx]
	case snapNew:
		f := &Flit{}
		sd.flits = append(sd.flits, f)
		f.ID = d.U64()
		f.Src = NodeID(d.I64())
		f.Dst = NodeID(d.I64())
		f.Kind = Kind(d.I64())
		f.PayloadBytes = int(d.I64())
		f.Created = sim.Cycle(d.U64())
		f.Hops = int(d.I64())
		f.Deflections = int(d.I64())
		f.RingChanges = int(d.I64())
		f.Corrupted = d.Bool()
		f.localDst = int(d.I64())
		f.localIface = int(d.I64())
		dir := d.U8()
		if dir > 1 && d.Err() == nil {
			d.Fail("invalid flit direction %d", dir)
		}
		f.dir = Direction(dir)
		f.counted = d.Bool()
		f.boarded = sim.Cycle(d.U64())
		f.Msg = sd.GetMsg()
		return f
	default:
		d.Fail("invalid flit reference tag")
		return nil
	}
}

// PutFlitSlice encodes an ordered flit buffer.
func (se *SnapEncoder) PutFlitSlice(s []*Flit) error {
	se.E.PutU32(uint32(len(s)))
	for _, f := range s {
		if err := se.PutFlit(f); err != nil {
			return err
		}
	}
	return nil
}

// GetFlitSlice decodes a flit buffer into dst[:0], rejecting nil entries
// and more than max flits.
func (sd *SnapDecoder) GetFlitSlice(dst []*Flit, max int) []*Flit {
	n := sd.D.Count(max)
	out := dst[:0]
	for i := 0; i < n; i++ {
		f := sd.GetFlit()
		if sd.D.Err() != nil {
			return out
		}
		if f == nil {
			sd.D.Fail("nil flit in buffer entry %d", i)
			return out
		}
		out = append(out, f)
	}
	return out
}

// TopoHash fingerprints the network's structure — rings, positions,
// station placement, interface capacities, node and device names — so a
// checkpoint can only be restored into an identically built system.
// Mutable state (queues, counters, failures) does not contribute.
func (n *Network) TopoHash() uint64 {
	e := sim.NewEncoder()
	e.PutString(n.name)
	e.PutU32(uint32(len(n.rings)))
	for _, r := range n.rings {
		e.PutU32(uint32(r.positions))
		e.PutBool(r.full)
		e.PutU32(uint32(len(r.stations)))
		for _, st := range r.stations {
			e.PutU32(uint32(st.pos))
			for i := 0; i < 2; i++ {
				ni := st.ifaces[i]
				if ni == nil {
					e.PutBool(false)
					continue
				}
				e.PutBool(true)
				e.PutI64(int64(ni.node))
				e.PutU32(uint32(ni.inject.cap()))
				e.PutU32(uint32(ni.eject.cap()))
				e.PutU32(uint32(ni.bypass.cap()))
			}
		}
	}
	e.PutU32(uint32(len(n.nodes)))
	for _, info := range n.nodes {
		e.PutString(info.name)
	}
	e.PutU32(uint32(len(n.devices)))
	for _, dev := range n.devices {
		e.PutString(dev.Name())
	}
	return sim.FNV1a(e.Data())
}

// SnapshotState serializes the network's complete mutable state. The encode
// order is the restore order: global scalars and counters, fault state,
// then every ring (slots in logical position order, then stations), then
// every device in registration order.
func (n *Network) SnapshotState(e *sim.Encoder) error {
	if !n.finalized {
		return fmt.Errorf("noc: snapshot of non-finalized network")
	}
	// Slots are written in logical position order: rings the gate skipped
	// catch up first, so the bytes do not depend on what was skipped.
	n.syncRings()
	se := NewSnapEncoder(e)
	e.PutString(n.name)
	e.PutU32(uint32(len(n.rings)))
	e.PutU32(uint32(len(n.nodes)))
	e.PutU32(uint32(len(n.devices)))

	e.PutU64(uint64(n.now))
	e.PutU64(n.ticks)
	e.PutU32(uint32(len(n.flitSeq)))
	for _, s := range n.flitSeq {
		e.PutU64(s)
	}
	e.PutBool(n.ITagEnabled)
	e.PutBool(n.ETagEnabled)
	e.PutU64(n.watchdogBudget)
	e.PutU64(n.watchdogPeriod)

	e.PutU64(n.InjectedFlits)
	e.PutU64(n.DeliveredFlits)
	e.PutU64(n.DeliveredBytes)
	e.PutU64(n.Deflections)
	e.PutU64(n.TotalHops)
	e.PutU64(n.DroppedFlits)
	e.PutU64(n.WatchdogDrops)
	e.PutU64(n.UnroutableDrops)
	e.PutU64(n.FaultDrops)
	e.PutU64(n.CorruptDrops)
	e.PutU64(n.ReroutedFlits)

	e.PutBool(n.throttle != nil)
	if n.throttle != nil {
		e.PutU64(n.throttle.windowStart)
		e.PutU64(n.throttle.deflectStart)
		e.PutBool(n.throttle.congested)
		e.PutU64(n.throttle.opportunitySeq)
	}

	failed := n.FailedBridges()
	e.PutU32(uint32(len(failed)))
	for _, id := range failed {
		e.PutI64(int64(id))
	}

	for _, r := range n.rings {
		if err := r.snapshot(se); err != nil {
			return err
		}
	}

	for _, dev := range n.devices {
		e.PutString(dev.Name())
		ss, ok := dev.(StateSnapshotter)
		if !ok {
			return fmt.Errorf("noc: device %q (%T) does not support checkpointing", dev.Name(), dev)
		}
		if err := ss.SnapshotState(se); err != nil {
			return fmt.Errorf("noc: device %q: %w", dev.Name(), err)
		}
	}
	return nil
}

// RestoreState loads a snapshot written by SnapshotState into an identically built
// network. Any mismatch or malformed input returns an error; the network
// may be partially restored on failure and must be discarded.
func (n *Network) RestoreState(d *sim.Decoder) error {
	if !n.finalized {
		return fmt.Errorf("noc: restore into non-finalized network")
	}
	sd := NewSnapDecoder(d)
	if name := d.String(maxSnapName); name != n.name && d.Err() == nil {
		d.Fail("network name %q does not match %q", name, n.name)
	}
	if c := d.U32(); int(c) != len(n.rings) && d.Err() == nil {
		d.Fail("ring count %d does not match %d", c, len(n.rings))
	}
	if c := d.U32(); int(c) != len(n.nodes) && d.Err() == nil {
		d.Fail("node count %d does not match %d", c, len(n.nodes))
	}
	if c := d.U32(); int(c) != len(n.devices) && d.Err() == nil {
		d.Fail("device count %d does not match %d", c, len(n.devices))
	}
	if err := d.Err(); err != nil {
		return err
	}

	n.now = sim.Cycle(d.U64())
	n.ticks = d.U64()
	// Ring-local clocks track the network clock at every run boundary;
	// re-sync them so ring-local timestamps are correct from the first
	// restored cycle. Restored loops are written at head 0 in logical
	// order, i.e. fully caught up.
	for _, r := range n.rings {
		r.now = n.now
		r.turned = n.ticks
	}
	// Wake state is derived, never serialized: everything ticks once and
	// reports its own idleness from the restored state.
	n.wakeAll()
	if c := d.Count(1 << 20); d.Err() == nil {
		if c != len(n.flitSeq) {
			d.Fail("flit sequence count %d does not match %d nodes", c, len(n.flitSeq))
		} else {
			for i := range n.flitSeq {
				n.flitSeq[i] = d.U64()
			}
		}
	}
	n.ITagEnabled = d.Bool()
	n.ETagEnabled = d.Bool()
	n.watchdogBudget = d.U64()
	n.watchdogPeriod = d.U64()

	n.InjectedFlits = d.U64()
	n.DeliveredFlits = d.U64()
	n.DeliveredBytes = d.U64()
	n.Deflections = d.U64()
	n.TotalHops = d.U64()
	n.DroppedFlits = d.U64()
	n.WatchdogDrops = d.U64()
	n.UnroutableDrops = d.U64()
	n.FaultDrops = d.U64()
	n.CorruptDrops = d.U64()
	n.ReroutedFlits = d.U64()

	hasThrottle := d.Bool()
	if d.Err() == nil && hasThrottle != (n.throttle != nil) {
		d.Fail("throttle presence %v does not match build (%v)", hasThrottle, n.throttle != nil)
	}
	if hasThrottle && d.Err() == nil {
		n.throttle.windowStart = d.U64()
		n.throttle.deflectStart = d.U64()
		n.throttle.congested = d.Bool()
		n.throttle.opportunitySeq = d.U64()
	}

	nFailed := d.Count(len(n.nodes))
	failed := make(map[NodeID]bool, nFailed)
	for i := 0; i < nFailed; i++ {
		id := NodeID(d.I64())
		if d.Err() != nil {
			return d.Err()
		}
		if id < 0 || int(id) >= len(n.nodes) {
			d.Fail("failed node %d out of range", id)
			return d.Err()
		}
		failed[id] = true
	}
	if err := d.Err(); err != nil {
		return err
	}
	// The free-lists are derived scratch state: a resumed process starts
	// with empty pools, exactly like the fresh run did at cycle 0.
	for _, sh := range n.shards {
		sh.freeFlits = nil
	}
	// Routing tables are pure functions of topology + failure set;
	// rebuild rather than deserialize. Live flits already carry their
	// (snapshotted) routes, so no reroute pass runs here.
	if len(failed) != 0 || len(n.failed) != 0 {
		n.failed = failed
		n.rebuildRoutes()
	}

	for _, r := range n.rings {
		if err := r.restore(sd); err != nil {
			return err
		}
	}

	for _, dev := range n.devices {
		if name := d.String(maxSnapName); name != dev.Name() && d.Err() == nil {
			d.Fail("device name %q does not match %q", name, dev.Name())
		}
		if err := d.Err(); err != nil {
			return err
		}
		ss, ok := dev.(StateSnapshotter)
		if !ok {
			return fmt.Errorf("noc: device %q (%T) does not support checkpointing", dev.Name(), dev)
		}
		if err := ss.RestoreState(sd); err != nil {
			return fmt.Errorf("noc: device %q: %w", dev.Name(), err)
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return d.Err()
}

// snapshot writes one ring: both loops' slots in logical position order,
// then every station.
func (r *Ring) snapshot(se *SnapEncoder) error {
	e := se.E
	e.PutU32(uint32(r.positions))
	e.PutBool(r.full)
	e.PutU32(uint32(len(r.stations)))
	loops := []*loop{&r.cw}
	if r.full {
		loops = append(loops, &r.ccw)
	}
	for _, l := range loops {
		for p := 0; p < r.positions; p++ {
			s := l.at(p)
			if err := se.PutFlit(s.flit); err != nil {
				return err
			}
			e.PutI64(int64(s.itagOwner))
		}
	}
	for _, st := range r.stations {
		if err := st.snapshot(se); err != nil {
			return err
		}
	}
	return nil
}

// restore loads one ring. The loop head resets to zero — rotation is
// virtual, so restoring slots in logical order at head 0 reproduces the
// identical logical state regardless of where the head was at snapshot
// time.
func (r *Ring) restore(sd *SnapDecoder) error {
	d := sd.D
	if p := d.U32(); int(p) != r.positions && d.Err() == nil {
		d.Fail("ring positions %d do not match %d", p, r.positions)
	}
	if full := d.Bool(); full != r.full && d.Err() == nil {
		d.Fail("ring fullness %v does not match %v", full, r.full)
	}
	if c := d.U32(); int(c) != len(r.stations) && d.Err() == nil {
		d.Fail("station count %d does not match %d", c, len(r.stations))
	}
	if err := d.Err(); err != nil {
		return err
	}
	loops := []*loop{&r.cw}
	if r.full {
		loops = append(loops, &r.ccw)
	}
	for _, l := range loops {
		l.head = 0
		l.occ = 0
		for p := 0; p < r.positions; p++ {
			s := &l.slots[p]
			f := sd.GetFlit()
			owner := int(d.I64())
			if err := d.Err(); err != nil {
				return err
			}
			if owner != noTag && (owner < 0 || owner >= r.positions*2) {
				d.Fail("slot %d I-tag owner %d out of range", p, owner)
				return d.Err()
			}
			if f != nil {
				if f.localDst < 0 || f.localDst >= r.positions || f.localIface < 0 || f.localIface > 1 {
					d.Fail("slot %d flit exit %d/%d out of range", p, f.localDst, f.localIface)
					return d.Err()
				}
				l.occ++
				s.dst = int32(f.localDst)
			}
			s.flit = f
			s.itagOwner = owner
		}
	}
	for _, st := range r.stations {
		if err := st.restore(sd); err != nil {
			return err
		}
	}
	r.queued = r.countQueued()
	return nil
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

// snapshot writes one station and its attached interfaces.
func (st *CrossStation) snapshot(se *SnapEncoder) error {
	e := se.E
	e.PutU32(uint32(st.pos))
	e.PutU8(uint8(st.rr))
	e.PutU64(uint64(st.stalledUntil))
	for i := 0; i < 2; i++ {
		ni := st.ifaces[i]
		e.PutBool(ni != nil)
		if ni == nil {
			continue
		}
		if err := ni.snapshot(se); err != nil {
			return err
		}
	}
	return nil
}

func (st *CrossStation) restore(sd *SnapDecoder) error {
	d := sd.D
	if p := d.U32(); int(p) != st.pos && d.Err() == nil {
		d.Fail("station position %d does not match %d", p, st.pos)
	}
	rr := d.U8()
	if rr > 1 && d.Err() == nil {
		d.Fail("station round-robin pointer %d out of range", rr)
	}
	st.rr = int(rr)
	st.stalledUntil = sim.Cycle(d.U64())
	for i := 0; i < 2; i++ {
		present := d.Bool()
		if d.Err() == nil && present != (st.ifaces[i] != nil) {
			d.Fail("interface %d presence %v does not match build", i, present)
		}
		if err := d.Err(); err != nil {
			return err
		}
		if !present {
			continue
		}
		if err := st.ifaces[i].restore(sd); err != nil {
			return err
		}
	}
	return d.Err()
}

// snapshot writes one node interface: the three queues, E-tag and I-tag
// state, swap mode and per-interface counters.
func (ni *NodeInterface) snapshot(se *SnapEncoder) error {
	e := se.E
	for _, q := range []*flitRing{&ni.inject, &ni.eject, &ni.bypass} {
		e.PutU32(uint32(q.cap()))
		e.PutU32(uint32(q.len()))
		for i := 0; i < q.len(); i++ {
			if err := se.PutFlit(q.at(i)); err != nil {
				return err
			}
		}
	}
	e.PutU32(uint32(len(ni.wantEject)))
	for _, id := range ni.wantEject {
		e.PutU64(id)
	}
	e.PutU32(uint32(len(ni.reserved)))
	for _, id := range ni.reserved {
		e.PutU64(id)
	}
	e.PutI64(int64(ni.injectFails))
	e.PutBool(ni.itagArmed)
	if ni.tagSlot != nil {
		dirTag, pos, ok := ni.station.ring.slotRef(ni.tagSlot)
		if !ok {
			return fmt.Errorf("noc: interface %d I-tag slot not found on its ring", ni.node)
		}
		e.PutU8(dirTag)
		e.PutU32(uint32(pos))
	} else {
		e.PutU8(0)
	}
	e.PutBool(ni.swapMode)
	e.PutU64(ni.Injected)
	e.PutU64(ni.EjectedFlits)
	e.PutU64(ni.EjectedPayload)
	e.PutU64(ni.Starved)
	e.PutU64(ni.Deflected)
	return nil
}

func (ni *NodeInterface) restore(sd *SnapDecoder) error {
	d := sd.D
	r := ni.station.ring
	for _, q := range []*flitRing{&ni.inject, &ni.eject, &ni.bypass} {
		if c := d.U32(); int(c) != q.cap() && d.Err() == nil {
			d.Fail("queue capacity %d does not match %d", c, q.cap())
		}
		n := d.Count(q.cap())
		if err := d.Err(); err != nil {
			return err
		}
		q.head = 0
		q.n = n
		for i := range q.buf {
			q.buf[i] = nil
		}
		for i := 0; i < n; i++ {
			f := sd.GetFlit()
			if err := d.Err(); err != nil {
				return err
			}
			if f == nil {
				d.Fail("nil flit in interface queue entry %d", i)
				return d.Err()
			}
			q.buf[i] = f
		}
	}
	// Queued-for-injection flits carry routes computed at Send time;
	// ejected flits' local fields are dead. Validate the live ones.
	for _, q := range []*flitRing{&ni.inject, &ni.bypass} {
		for i := 0; i < q.n; i++ {
			f := q.buf[i]
			if f.localDst < 0 || f.localDst >= r.positions || f.localIface < 0 || f.localIface > 1 {
				d.Fail("queued flit exit %d/%d out of range", f.localDst, f.localIface)
				return d.Err()
			}
		}
	}
	nWant := d.Count(1 << 20)
	ni.wantEject = ni.wantEject[:0]
	for i := 0; i < nWant; i++ {
		ni.wantEject = append(ni.wantEject, d.U64())
	}
	nRes := d.Count(1 << 20)
	ni.reserved = ni.reserved[:0]
	for i := 0; i < nRes; i++ {
		ni.reserved = append(ni.reserved, d.U64())
	}
	ni.injectFails = int(d.I64())
	ni.itagArmed = d.Bool()
	switch tag := d.U8(); tag {
	case 0:
		ni.tagSlot = nil
	case 1, 2:
		pos := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		if pos < 0 || pos >= r.positions {
			d.Fail("I-tag slot position %d out of range", pos)
			return d.Err()
		}
		l := &r.cw
		if tag == 2 {
			if !r.full {
				d.Fail("I-tag slot on missing CCW loop")
				return d.Err()
			}
			l = &r.ccw
		}
		ni.tagSlot = l.at(pos)
	default:
		d.Fail("invalid I-tag slot tag %d", tag)
		return d.Err()
	}
	ni.swapMode = d.Bool()
	ni.Injected = d.U64()
	ni.EjectedFlits = d.U64()
	ni.EjectedPayload = d.U64()
	ni.Starved = d.U64()
	ni.Deflected = d.U64()
	return d.Err()
}

// SnapshotState serializes the L1 bridge: DRM/escape state per half plus
// the bridge counters. (The attached interfaces are serialized with
// their stations.)
func (b *RBRGL1) SnapshotState(se *SnapEncoder) error {
	e := se.E
	e.PutBool(b.dead)
	e.PutU64(b.Forwarded)
	e.PutU64(b.SwapEntries)
	e.PutU64(b.SwapRescues)
	e.PutU32(uint32(len(b.halves)))
	for _, h := range b.halves {
		if err := se.PutFlitSlice(h.escape); err != nil {
			return err
		}
		e.PutBool(h.drm)
		e.PutI64(int64(h.stalledCycles))
		e.PutI64(int64(h.blockedCycles))
		e.PutU64(h.lastInjectSeen)
		e.PutU64(h.lastDeflectSeen)
	}
	return nil
}

// RestoreState loads the L1 bridge state written by SnapshotState.
func (b *RBRGL1) RestoreState(sd *SnapDecoder) error {
	d := sd.D
	b.dead = d.Bool()
	b.Forwarded = d.U64()
	b.SwapEntries = d.U64()
	b.SwapRescues = d.U64()
	if c := d.U32(); int(c) != len(b.halves) && d.Err() == nil {
		d.Fail("bridge half count %d does not match %d", c, len(b.halves))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for _, h := range b.halves {
		h.escape = sd.GetFlitSlice(h.escape, 1<<16)
		h.drm = d.Bool()
		h.stalledCycles = int(d.I64())
		h.blockedCycles = int(d.I64())
		h.lastInjectSeen = d.U64()
		h.lastDeflectSeen = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotState serializes the L2 bridge: tx/reserve/pipe/rx buffers,
// credit windows and in-flight credit pulses, DRM state and counters,
// all per half. Snapshots are taken between Run calls, where every
// epoch's link merge has already published the staging buffers (out,
// credOut) — both are empty by construction and not serialized.
func (b *RBRGL2) SnapshotState(se *SnapEncoder) error {
	e := se.E
	for side := 0; side < 2; side++ {
		h := &b.half[side]
		e.PutBool(h.dead)
		e.PutU64(h.transferred)
		e.PutU64(h.swapEntries)
		e.PutU64(h.swapRescues)
		if err := se.PutFlitSlice(h.tx); err != nil {
			return err
		}
		if err := se.PutFlitSlice(h.reserve); err != nil {
			return err
		}
		if err := se.PutFlitSlice(h.rx); err != nil {
			return err
		}
		e.PutU32(uint32(len(h.pipe)))
		for _, pf := range h.pipe {
			if err := se.PutFlit(pf.f); err != nil {
				return err
			}
			e.PutU64(uint64(pf.arrives))
			e.PutBool(pf.escape)
		}
		e.PutI64(int64(h.txCred))
		e.PutI64(int64(h.escCred))
		e.PutU32(uint32(len(h.credIn)))
		for _, c := range h.credIn {
			e.PutU64(uint64(c.arrives))
			e.PutI64(int64(c.norm))
			e.PutI64(int64(c.esc))
		}
		e.PutBool(h.drm)
		e.PutI64(int64(h.stalledCycles))
		e.PutU64(h.lastInjectSeen)
	}
	return nil
}

// RestoreState loads the L2 bridge state written by SnapshotState.
func (b *RBRGL2) RestoreState(sd *SnapDecoder) error {
	d := sd.D
	window := b.cfg.txWindow() + b.cfg.escWindow()
	for side := 0; side < 2; side++ {
		h := &b.half[side]
		h.dead = d.Bool()
		h.transferred = d.U64()
		h.swapEntries = d.U64()
		h.swapRescues = d.U64()
		h.tx = sd.GetFlitSlice(h.tx, b.cfg.TxDepth)
		h.reserve = sd.GetFlitSlice(h.reserve, 1<<16)
		h.rx = sd.GetFlitSlice(h.rx, b.cfg.RxDepth)
		nPipe := d.Count(window)
		if err := d.Err(); err != nil {
			return err
		}
		h.pipe = h.pipe[:0]
		for i := 0; i < nPipe; i++ {
			f := sd.GetFlit()
			arrives := sim.Cycle(d.U64())
			escape := d.Bool()
			if err := d.Err(); err != nil {
				return err
			}
			if f == nil {
				d.Fail("nil flit in bridge pipe entry %d", i)
				return d.Err()
			}
			h.pipe = append(h.pipe, pipeFlit{f: f, arrives: arrives, escape: escape})
		}
		h.txCred = int(d.I64())
		h.escCred = int(d.I64())
		nCred := d.Count(window)
		if err := d.Err(); err != nil {
			return err
		}
		h.credIn = h.credIn[:0]
		for i := 0; i < nCred; i++ {
			arrives := sim.Cycle(d.U64())
			norm := int32(d.I64())
			esc := int32(d.I64())
			if err := d.Err(); err != nil {
				return err
			}
			h.credIn = append(h.credIn, credPulse{arrives: arrives, norm: norm, esc: esc})
		}
		h.out = h.out[:0]
		h.credOut = h.credOut[:0]
		h.drm = d.Bool()
		h.stalledCycles = int(d.I64())
		h.lastInjectSeen = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}
