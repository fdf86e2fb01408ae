package noc

import (
	"math/bits"

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
	occ   int // occupied slots (flit != nil), kept by board/vacate
	// free has bit i set while slots[i] carries no flit (tagged or not).
	// Like the slots it never moves: board and vacate flip one bit, and
	// freeAt turns a word of it into position space, through head, when a
	// parked station asks.
	free []uint64
	// arrivals is the arrival calendar, one row of maskWords(positions)
	// words per head value: row h has bit p set when a flit gets off at
	// position p on the cycle head == h. A flit's exit is fixed when it
	// boards and rotation is deterministic, so board sets the one bit and
	// nothing that rotates (advance, sync) touches the calendar; a
	// deflected flit is back at its exit at the same head value a lap
	// later. The calendar is a superset: an ejected, dropped or rerouted
	// flit leaves its bit behind, and the visit it causes clears it
	// (clearStale). A missing bit would be a flit that never gets off.
	arrivals []uint64
}

// maskWords is the length of a one-bit-per-position mask.
func maskWords(positions int) int { return (positions + 63) / 64 }

// init allocates the loop's storage with every slot free and untagged.
func (l *loop) init(positions int) {
	l.slots = make([]slot, positions)
	for i := range l.slots {
		l.slots[i].itagOwner = noTag
	}
	words := maskWords(positions)
	l.free = make([]uint64, words)
	l.arrivals = make([]uint64, positions*words)
	l.reset()
}

// initAbsent gives a half ring's missing counter-clockwise loop one empty
// calendar row and an empty free mask, so the ring tick reads both
// directions the same way and finds nothing in this one.
func (l *loop) initAbsent(positions int) {
	l.free = make([]uint64, maskWords(positions))
	l.arrivals = make([]uint64, maskWords(positions))
}

// reset empties the loop for a wholesale reload: head at zero, nothing on
// board, every position free, no arrival expected (I-tags are the
// caller's). The caller then boards what it loads.
func (l *loop) reset() {
	l.head, l.occ = 0, 0
	for i := range l.slots {
		l.slots[i].flit = nil
	}
	for i := range l.free {
		l.free[i] = ^uint64(0)
	}
	if top := uint(len(l.slots)) & 63; top != 0 {
		l.free[len(l.free)-1] = 1<<top - 1
	}
	for i := range l.arrivals {
		l.arrivals[i] = 0
	}
}

// at returns the slot currently at logical position pos. Both head and
// pos are in [0, n), so one conditional subtraction replaces a modulo.
func (l *loop) at(pos int) *slot { return &l.slots[l.index(pos)] }

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

// index returns the physical index of the slot at logical position pos.
func (l *loop) index(pos int) int {
	i := l.head + pos
	if n := len(l.slots); i >= n {
		i -= n
	}
	return i
}

// board puts f into s, the free slot currently at position pos, and
// enters its exit in the calendar.
func (l *loop) board(s *slot, pos int, f *Flit) {
	s.flit = f
	l.occ++
	i := l.index(pos)
	l.free[i>>6] &^= 1 << (uint(i) & 63)
	l.expect(s, pos, int(f.localDst))
}

// expect records that the flit in s, now at position pos, gets off at
// dst. Boarding and a live reroute call it; the bit of a former exit stays
// behind as a harmless stale entry.
func (l *loop) expect(s *slot, pos, dst int) {
	s.dst = int32(dst)
	word, bit := l.expected(pos, dst)
	*word |= bit
}

// expected returns the calendar word and bit that stand for "the slot now
// at position pos gets off at dst": it sits there on the cycle
// head == (head + pos - dst) mod n, so that is the row, and dst the bit.
func (l *loop) expected(pos, dst int) (word *uint64, bit uint64) {
	n := len(l.slots)
	h := l.head + pos - dst
	if h < 0 {
		h += n
	} else if h >= n {
		h -= n
	}
	return &l.arrivals[h*len(l.free)+dst>>6], 1 << (uint(dst) & 63)
}

// vacate empties s, the occupied slot currently at position pos, and
// returns what it carried.
func (l *loop) vacate(s *slot, pos int) *Flit {
	f := s.flit
	s.flit = nil
	l.occ--
	i := l.index(pos)
	l.free[i>>6] |= 1 << (uint(i) & 63)
	return f
}

// freeAt returns word w of the free mask in position space: bit b says
// the slot now at position 64w+b is free. Position p is slot (head+p) mod
// n, so the word is a window of the stored mask starting at head+64w, in
// two pieces when it runs over the end of the loop.
func (l *loop) freeAt(w int) uint64 {
	n := len(l.slots)
	k := n - w<<6 // positions in this word
	if k > 64 {
		k = 64
	}
	start := l.index(w << 6)
	if first := n - start; first < k {
		return maskBits(l.free, start, first) | maskBits(l.free, 0, k-first)<<uint(first)
	}
	return maskBits(l.free, start, k)
}

// maskBits returns bits [i, i+k) of m, 1 <= k <= 64, in the low bits of
// the result.
func maskBits(m []uint64, i, k int) uint64 {
	off := uint(i) & 63
	v := m[i>>6] >> off
	if int(off)+k > 64 {
		v |= m[i>>6+1] << (64 - off)
	}
	return v & (^uint64(0) >> uint(64-k))
}

// arriving returns word w of the calendar row of the current head value:
// the positions 64w.. at which a flit may get off this cycle.
func (l *loop) arriving(w int) *uint64 { return &l.arrivals[l.head*len(l.free)+w] }

// clearStale drops position pos from word, its word of the current
// calendar row, when no flit is getting off there any more — the lazy
// half of the superset rule, run after every station visit.
func (l *loop) clearStale(word *uint64, pos int) {
	bit := uint64(1) << (uint(pos) & 63)
	if *word&bit == 0 {
		return
	}
	if s := l.at(pos); s.flit == nil || int(s.dst) != pos {
		*word &^= bit
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
	// stationSet is the station half of the visit set (tick), one word per
	// 64 positions, written only by CrossStation.classify.
	stationSet []stationWord
}

// stationWord holds 64 positions' bits of a ring's stationSet. A busy
// station is seen every cycle: it is stalled, has a head for its own
// station, or has a ring-bound head that may still arm an I-tag. A station
// is parked in a direction when every head it has for that direction can
// only be defeated by an occupied slot — its interface's I-tag is armed,
// or I-tags are off — so it is seen only when the slot in front is free;
// the defeats in between are credited by CrossStation.settle.
type stationWord struct {
	busy   uint64
	parked [2]uint64
}

// ID returns the ring identifier.
func (r *Ring) ID() RingID { return r.id }

// Positions returns the total loop length in positions.
func (r *Ring) Positions() int { return r.positions }

// Stations returns the stations in position order.
func (r *Ring) Stations() []*CrossStation { return r.stations }

// Station returns the station at pos, or nil.
func (r *Ring) Station(pos int) *CrossStation {
	if pos < 0 || pos >= len(r.stationAt) {
		return nil
	}
	return r.stationAt[pos]
}

// AddStation returns the cross station at the given position, placing
// one there first if there is none. A position outside the loop is a
// wiring fault that Finalize reports; the station returned then sits on
// no ring.
func (r *Ring) AddStation(pos int) *CrossStation {
	r.net.building("AddStation")
	if pos < 0 || pos >= r.positions {
		r.net.fail("station position %d outside ring %d of %d positions", pos, r.id, r.positions)
		return &CrossStation{ring: r, pos: pos}
	}
	if r.stationAt[pos] != nil {
		return r.stationAt[pos]
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

// tick runs this cycle's station logic, position order, CW before CCW at
// each station — at the stations where something can happen. A flit only
// passing a station changes nothing there, so the visit set is
//
//	busy | arriving(cw) | arriving(ccw) | parked[CW]&free(cw) | parked[CCW]&free(ccw)
//
// read word by word from the live masks: a visit can change them (a
// delivery callback may queue a flit further along the ring), and what it
// adds at a later position is seen this cycle, as a scan of every station
// would. The forced-awake reference visits every station, so nothing is
// ever parked through a cycle there. tick stamps the ring's clock first,
// so a caller that drives one ring by hand (tests, benchmarks) gets
// current timestamps too.
func (r *Ring) tick(now sim.Cycle) {
	r.now = now
	n := r.net
	n.sweepRing = r.id
	if n.forceAwake {
		for _, st := range r.stations {
			r.visit(st, now, r.cw.arriving(st.pos>>6), r.ccw.arriving(st.pos>>6))
		}
		return
	}
	visited := 0
	for w := range r.stationSet {
		// The words do not move during a tick; their bits may.
		set, cw, ccw := &r.stationSet[w], r.cw.arriving(w), r.ccw.arriving(w)
		var done uint64 // this word's positions up to the last one visited
		for {
			v := set.busy | *cw | *ccw
			if p := set.parked[CW]; p != 0 {
				v |= p & r.cw.freeAt(w)
			}
			if p := set.parked[CCW]; p != 0 {
				v |= p & r.ccw.freeAt(w)
			}
			if v &^= done; v == 0 {
				break
			}
			b := uint(bits.TrailingZeros64(v))
			done |= 2<<(b&63) - 1 // b < 64: v is not zero
			r.visit(r.stationAt[w<<6|int(b)], now, cw, ccw)
			visited++
		}
	}
	n.StationTicksSkipped += uint64(len(r.stations) - visited)
}

// visit is one station's turn in a ring tick, shared by the masked loop
// and the forced-awake one: credit the defeats of the cycles the station
// was parked through, run the cycle, and drop calendar entries that
// brought the visit for nothing (cw and ccw are the station's words of
// this cycle's rows). What the cycle changes of the station's place in
// the visit set is re-derived where it changes (classify); only a stall
// ends by the clock alone.
func (r *Ring) visit(st *CrossStation, now sim.Cycle, cw, ccw *uint64) {
	n := r.net
	n.sweepPos = st.pos
	if t := n.ticks; t > st.lastVisit {
		st.settle(t - 1)
		st.lastVisit = t
	}
	st.tick(now)
	if st.stalledUntil != 0 {
		st.classify() // stalled, or stalled once: cheap to ask, rare to be
	}
	r.cw.clearStale(cw, st.pos)
	r.ccw.clearStale(ccw, st.pos) // a half ring's row is empty
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
				n += ni.inject.Len() + ni.bypass.Len()
			}
		}
	}
	return n
}

// occupancy returns the number of occupied slots across both loops.
func (r *Ring) occupancy() int { return r.cw.occ + r.ccw.occ }
