package noc

import (
	"fmt"

	"chipletnoc/internal/sim"
)

// noTag marks a slot without an I-tag reservation.
const noTag = -1

// slot is one circulating ring slot. A slot either carries a flit or is
// free; a free slot may still be reserved by an I-tag, in which case only
// the reserving interface may fill it.
type slot struct {
	flit *Flit
	// itagOwner is the reservation key (station position *2 + interface
	// index) of the interface the slot is reserved for, or noTag.
	itagOwner int
	// dst mirrors flit.localDst while the slot is occupied, so the
	// per-station transit check ("is this flit getting off here?") reads
	// only the sequentially laid-out slot array instead of chasing the
	// flit pointer. Refreshed on injection and live-flit rerouting;
	// meaningless while flit is nil.
	dst int32
}

// loop is one direction's circulating slot storage. The slots never move
// in memory: rotation is virtual. head is the physical index of logical
// position 0, so advancing the loop is one index update instead of an
// O(positions) copy, and at() maps logical position to physical storage.
// head stays in [0, len(slots)) forever — it cannot overflow no matter
// how many cycles the simulation runs.
type loop struct {
	slots []slot
	head  int // physical index of logical position 0
	occ   int // occupied slots (flit != nil), kept by inject/eject/drop
}

// init allocates the loop's storage with every slot free and untagged.
func (l *loop) init(positions int) {
	l.slots = make([]slot, positions)
	for i := range l.slots {
		l.slots[i].itagOwner = noTag
	}
}

// at returns the slot currently at logical position pos. Both head and
// pos are in [0, n), so one conditional subtraction replaces a modulo.
func (l *loop) at(pos int) *slot {
	i := l.head + pos
	if n := len(l.slots); i >= n {
		i -= n
	}
	return &l.slots[i]
}

// rotateHigh virtually moves every slot towards higher positions (the
// clockwise travel direction): the slot that was at position p is now at
// p+1, so logical position 0 maps one physical index earlier.
func (l *loop) rotateHigh() {
	if l.head == 0 {
		l.head = len(l.slots)
	}
	l.head--
}

// rotateLow virtually moves every slot towards lower positions (the
// counter-clockwise travel direction).
func (l *loop) rotateLow() {
	l.head++
	if l.head == len(l.slots) {
		l.head = 0
	}
}

// rotateHighBy is k single rotateHigh steps in one head update; k is
// already reduced modulo the loop length.
func (l *loop) rotateHighBy(k int) {
	l.head -= k
	if l.head < 0 {
		l.head += len(l.slots)
	}
}

// rotateLowBy is k single rotateLow steps in one head update; k is
// already reduced modulo the loop length.
func (l *loop) rotateLowBy(k int) {
	l.head += k
	if n := len(l.slots); l.head >= n {
		l.head -= n
	}
}

// Ring is one slotted loop (or pair of loops for a full ring). Positions
// include pure repeater positions between stations: the paper's
// distance-per-cycle metric appears here as "how many positions a span
// costs", so a physically longer span simply contributes more positions.
type Ring struct {
	id        RingID
	net       *Network
	positions int
	full      bool
	// now is the cycle this ring is currently executing: the network clock,
	// kept on the ring so ring-local timestamps (flit Created/boarded,
	// latency math) read one struct. It is stamped every cycle even when
	// the ring's tick is skipped as idle: a device sending into an idle
	// ring reads it for Flit.Created.
	now sim.Cycle
	// queued counts the inject and bypass entries waiting at this ring's
	// interfaces, kept exact by every site that adds or removes one. With
	// the loops' occ counters it is the ring's idle predicate: nothing on
	// a slot and nothing queued means advance and every station tick are
	// no-ops, so the tick engine skips the ring (see gate.go).
	queued int
	// turned is how many advances the loops' head offsets reflect. A
	// skipped ring falls behind the network's tick count; sync rotates it
	// forward in one head update before anything looks at slot positions.
	turned uint64
	// cw holds the clockwise loop; ccw the counter-clockwise one
	// (ccw.slots is nil for half rings).
	cw, ccw   loop
	stations  []*CrossStation // ordered by position
	stationAt []*CrossStation // dense position index (nil = no station)
}

// ID returns the ring identifier.
func (r *Ring) ID() RingID { return r.id }

// Positions returns the total loop length in positions.
func (r *Ring) Positions() int { return r.positions }

// Full reports whether the ring has both directions.
func (r *Ring) Full() bool { return r.full }

// Stations returns the stations in position order.
func (r *Ring) Stations() []*CrossStation { return r.stations }

// Station returns the station at pos, or nil.
func (r *Ring) Station(pos int) *CrossStation {
	if pos < 0 || pos >= len(r.stationAt) {
		return nil
	}
	return r.stationAt[pos]
}

// AddStation places a cross station at the given position. Positions must
// be unique and inside the loop.
func (r *Ring) AddStation(pos int) *CrossStation {
	if pos < 0 || pos >= r.positions {
		panic(fmt.Sprintf("noc: station position %d outside ring of %d positions", pos, r.positions))
	}
	if r.stationAt[pos] != nil {
		panic(fmt.Sprintf("noc: duplicate station at position %d on ring %d", pos, r.id))
	}
	st := &CrossStation{ring: r, pos: pos}
	r.stationAt[pos] = st
	// Keep the slice position-ordered for deterministic ticking.
	i := len(r.stations)
	for i > 0 && r.stations[i-1].pos > pos {
		i--
	}
	r.stations = append(r.stations, nil)
	copy(r.stations[i+1:], r.stations[i:])
	r.stations[i] = st
	return st
}

// loopFor returns the loop carrying direction d.
func (r *Ring) loopFor(d Direction) *loop {
	if d == CW {
		return &r.cw
	}
	return &r.ccw
}

// advance moves every slot one position in its direction of travel: the
// clockwise loop rotates towards higher positions, the counter-clockwise
// loop towards lower positions. Rotation is virtual (a head-offset
// update), so the cost is O(1) regardless of ring length. Occupied slots
// accumulate one hop each — accounted network-wide from the occupancy
// counters here, and folded into each flit's Hops lazily (see settleHops)
// from the cycle it boarded its slot.
func (r *Ring) advance() {
	r.turned++
	r.cw.rotateHigh()
	r.net.TotalHops += uint64(r.cw.occ)
	if r.full {
		r.ccw.rotateLow()
		r.net.TotalHops += uint64(r.ccw.occ)
	}
}

// idle reports whether this cycle's advance and station ticks would all
// be no-ops: no occupied slot to move, eject or defeat an injection, and
// no queued flit to inject or transfer locally.
func (r *Ring) idle() bool { return r.occupancy()+r.queued == 0 }

// sync brings the head offsets up to turn advances. The ring was idle on
// every cycle it missed, so the missed advances moved no flit and
// accrued no hop: one head update by the distance modulo the loop length
// is the whole catch-up. Everything that reads slot positions outside the
// ring's own tick (LiveFlits, the fault injector's victim scan, reroutes,
// the watchdog, the snapshot encoder) goes through Network.syncRings.
func (r *Ring) sync(turn uint64) {
	if turn <= r.turned {
		return
	}
	k := int((turn - r.turned) % uint64(r.positions))
	r.turned = turn
	r.cw.rotateHighBy(k)
	if r.full {
		r.ccw.rotateLowBy(k)
	}
}

// settleHops folds the hops a flit accrued since boarding its current
// slot into f.Hops. Every slot advance since f.boarded moved the flit one
// position, so the lazily materialised count equals the per-advance
// increments the eager implementation performed. Call it whenever the
// flit leaves a slot or its Hops field is observed mid-flight;
// re-stamping boarded makes settling idempotent.
func (r *Ring) settleHops(f *Flit) {
	now := r.now
	f.Hops += int(now - f.boarded)
	f.boarded = now
}

// slotAt returns the slot currently at position pos for direction d.
func (r *Ring) slotAt(d Direction, pos int) *slot {
	if d == CW {
		return r.cw.at(pos)
	}
	return r.ccw.at(pos)
}

// distance returns how many positions a flit travels from 'from' to 'to'
// in direction d.
func (r *Ring) distance(d Direction, from, to int) int {
	if d == CW {
		return (to - from + r.positions) % r.positions
	}
	return (from - to + r.positions) % r.positions
}

// shortestDir returns the direction with the fewest positions from 'from'
// to 'to'; half rings always answer CW. Ties break clockwise.
func (r *Ring) shortestDir(from, to int) Direction {
	if !r.full {
		return CW
	}
	// Branchless-modulo form of distance(CW) <= distance(CCW): with
	// cw = (to-from) mod n, the CCW distance is (n-cw) mod n, so CW wins
	// (ties clockwise) exactly when 2*cw <= n. Avoids two integer
	// divisions on the per-injection routing path.
	cw := to - from
	if cw < 0 {
		cw += r.positions
	}
	if cw*2 <= r.positions {
		return CW
	}
	return CCW
}

// tick runs all station logic for this cycle, position order, CW before
// CCW at each station. It stamps the ring's clock first, so a caller that
// drives one ring by hand (tests, benchmarks) gets current timestamps too.
func (r *Ring) tick(now sim.Cycle) {
	r.now = now
	for _, st := range r.stations {
		st.tick(now)
	}
}

// LiveFlits returns the flits currently circulating on the ring, CW loop
// then CCW loop, position ascending. Observation settles each flit's
// lazily-accounted hops.
func (r *Ring) LiveFlits() []*Flit {
	r.sync(r.net.ticks)
	var out []*Flit
	for p := 0; p < r.positions; p++ {
		if f := r.cw.at(p).flit; f != nil {
			r.settleHops(f)
			out = append(out, f)
		}
	}
	if r.full {
		for p := 0; p < r.positions; p++ {
			if f := r.ccw.at(p).flit; f != nil {
				r.settleHops(f)
				out = append(out, f)
			}
		}
	}
	return out
}

// countQueued recounts the inject and bypass entries at the ring's
// interfaces — what queued must always equal.
func (r *Ring) countQueued() int {
	n := 0
	for _, st := range r.stations {
		for _, ni := range st.ifaces {
			if ni != nil {
				n += ni.inject.len() + ni.bypass.len()
			}
		}
	}
	return n
}

// occupancy returns the number of occupied slots across both loops.
func (r *Ring) occupancy() int { return r.cw.occ + r.ccw.occ }
