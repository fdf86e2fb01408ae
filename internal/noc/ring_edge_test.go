package noc

import (
	"testing"

	"chipletnoc/internal/sim"
)

// Virtual-rotation edge cases: degenerate ring sizes, head-offset state
// after astronomically long runs, topology rebuilds and watchdog sweeps
// observing post-rotation positions, and a fuzzed equivalence proof that
// the offset mapping behaves exactly like physically rotating the slot
// array.

// TestTwoPositionRing exercises the smallest legal full ring: two
// positions, where every advance is a wrap and CW/CCW distances tie
// everywhere (ties break clockwise).
func TestTwoPositionRing(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(2, true)
	a := newSource(t, net, r.AddStation(0), "a")
	z := newSink(t, net, r.AddStation(1), "z", 1)
	net.MustFinalize()

	if d := r.shortestDir(0, 1); d != CW {
		t.Fatalf("tie on a 2-ring broke %v, want CW", d)
	}

	const flits = 8
	sent := make([]*Flit, 0, flits)
	for i := 0; i < flits; i++ {
		f := net.NewFlit(a.Node(), z.Node(), KindData, 64)
		a.queue(f)
		sent = append(sent, f)
	}
	runCycles(net, 40)
	if len(z.got) != flits {
		t.Fatalf("delivered %d/%d flits on a 2-position ring", len(z.got), flits)
	}
	for _, f := range sent {
		if f.Hops != 1 {
			t.Errorf("flit %d crossed a 2-ring in %d hops, want 1", f.ID, f.Hops)
		}
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPositionRingAdvanceWraps pins the loop mechanics at n=2: the
// head index must toggle 0,1,0,1 and a placed flit must alternate
// logical positions every advance.
func TestTwoPositionRingAdvanceWraps(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(2, true)
	f := &Flit{ID: 9, localDst: 1}
	placeFlit(r, &r.cw, 0, f)
	for cycle := 1; cycle <= 5; cycle++ {
		r.advance()
		wantPos := cycle % 2
		if got := r.cw.at(wantPos).flit; got != f {
			t.Fatalf("after %d advances flit not at position %d", cycle, wantPos)
		}
		if r.cw.head != (2-cycle%2)%2 {
			t.Fatalf("after %d advances head = %d", cycle, r.cw.head)
		}
	}
}

// TestOffsetWraparoundDeepIntoRun drives the offset machinery in the
// state it would have after >2^31 cycles — head mid-range and the cycle
// clock far past 32-bit territory — and checks position mapping and the
// lazy hop accounting still agree. The head index itself is bounded in
// [0, positions) by construction, so the risk a run this long exposes is
// arithmetic on the cycle clock, which boarded/hops derive from.
func TestOffsetWraparoundDeepIntoRun(t *testing.T) {
	const bigCycle = sim.Cycle(1)<<31 + 12345 // past any int32 clock
	net := NewNetwork("t")
	r := net.AddRing(5, true)
	net.now, r.now = bigCycle, bigCycle

	// Pretend the ring has been spinning since cycle 0: head can be any
	// value in [0, n); set it directly rather than advancing 2^31 times.
	r.cw.head = 3
	r.ccw.head = 2

	f := &Flit{ID: 1, localDst: 4}
	placeFlit(r, &r.cw, 1, f)
	g := &Flit{ID: 2, localDst: 0}
	placeFlit(r, &r.ccw, 4, g)

	for i := sim.Cycle(1); i <= 7; i++ {
		net.now, r.now = bigCycle+i, bigCycle+i
		r.advance()
	}
	// 7 advances on a 5-ring: CW 1 -> (1+7)%5 = 3, CCW 4 -> (4-7)%5 = 2.
	if r.cw.at(3).flit != f {
		t.Fatal("CW flit not at position 3 after wraparound advances")
	}
	if r.ccw.at(2).flit != g {
		t.Fatal("CCW flit not at position 2 after wraparound advances")
	}
	if r.cw.head < 0 || r.cw.head >= 5 || r.ccw.head < 0 || r.ccw.head >= 5 {
		t.Fatalf("head escaped [0,5): cw=%d ccw=%d", r.cw.head, r.ccw.head)
	}
	r.settleHops(f)
	r.settleHops(g)
	if f.Hops != 7 || g.Hops != 7 {
		t.Fatalf("hops = %d,%d want 7,7 (lazy accounting across the 2^31 boundary)", f.Hops, g.Hops)
	}
	if want := uint64(14); net.TotalHops != want {
		t.Fatalf("TotalHops = %d, want %d", net.TotalHops, want)
	}
}

// TestFailRepairObservesRotatedPositions runs traffic across a bridge
// until both loops' heads have rotated away from zero, then fails the
// bridge mid-flight (forcing rerouteLiveFlits and watchdog sweeps to
// walk slots through the offset mapping), repairs it, and requires full
// recovery with conservation intact.
func TestFailRepairObservesRotatedPositions(t *testing.T) {
	net := NewNetwork("t")
	v := net.AddRing(10, true)
	h := net.AddRing(10, true)
	src := newSource(t, net, v.AddStation(0), "src")
	dst := newSink(t, net, h.AddStation(5), "dst", 2)
	cfg := DefaultRBRGL1Config()
	cfg.InjectDepth, cfg.EjectDepth, cfg.ForwardPerCycle = 8, 8, 2
	br := NewRBRGL1(net, "bridge", cfg, v.AddStation(5), h.AddStation(0))
	net.SetWatchdog(60, 10)
	net.MustFinalize()

	const flits = 30
	for i := 0; i < flits; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, 64))
	}
	cycle := sim.Cycle(0)
	run := func(n int) {
		for i := 0; i < n; i++ {
			net.Tick(cycle)
			cycle++
		}
	}

	run(13) // odd count: heads sit mid-range, not at 0
	if v.cw.head == 0 && v.ccw.head == 0 {
		t.Fatal("test premise broken: heads did not rotate")
	}
	if err := net.FailBridge(br.Node()); err != nil {
		t.Fatal(err)
	}
	run(100) // strand + watchdog-reap in-flight flits via at()-mapped sweeps
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("conservation after fail + sweeps: %v", err)
	}
	if err := net.RepairBridge(br.Node()); err != nil {
		t.Fatal(err)
	}
	run(400)
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("conservation after repair: %v", err)
	}
	delivered := uint64(len(dst.got))
	if delivered == 0 {
		t.Fatal("nothing delivered after repair")
	}
	// Every flit must end up delivered or in a drop bucket (watchdog
	// age-out, unroutable at reroute time, or lost inside the dead
	// bridge) — nothing stranded in flight.
	if delivered+net.DroppedFlits != flits || net.WatchdogDrops == 0 {
		t.Fatalf("delivered=%d dropped=%d (watchdog=%d unroutable=%d fault=%d), want partition of %d with watchdog reaps",
			delivered, net.DroppedFlits, net.WatchdogDrops, net.UnroutableDrops, net.FaultDrops, flits)
	}
}

// FuzzRotateByCopyEqualsOffset proves the virtual rotation equivalent to
// physically rotating the slot array: a reference loop that memmoves its
// slots every step must present the identical logical view as the
// offset-mapped loop under the same random operation stream.
func FuzzRotateByCopyEqualsOffset(f *testing.F) {
	f.Add(5, []byte{0, 1, 2, 0x81, 3, 0})
	f.Add(2, []byte{0x90, 0, 0, 0xff, 1})
	f.Add(17, []byte{7, 0x85, 0x11, 0x42, 9, 9, 0x81})
	f.Fuzz(func(t *testing.T, n int, ops []byte) {
		if n < 1 || n > 32 {
			t.Skip()
		}
		virt := &loop{}
		virt.init(n)
		ref := make([]slot, n) // reference: slots physically rotate
		for i := range ref {
			ref[i].itagOwner = noTag
		}
		nextID := uint64(1)

		for _, op := range ops {
			pos := int(op&0x7f) % n
			if op&0x80 == 0 {
				// Toggle occupancy/tag at a logical position on both
				// representations.
				v, r := virt.at(pos), &ref[pos]
				if v.flit == nil {
					fl := &Flit{ID: nextID}
					nextID++
					v.flit, v.dst = fl, int32(pos)
					virt.occ++
					r.flit, r.dst = fl, int32(pos)
				} else {
					v.flit = nil
					virt.occ--
					r.flit = nil
				}
				v.itagOwner = int(op)
				r.itagOwner = int(op)
			} else {
				// Rotate one step; direction from the payload bit.
				if op&0x40 == 0 {
					virt.rotateHigh()
					// rotate-by-copy, towards higher positions
					last := ref[n-1]
					copy(ref[1:], ref[:n-1])
					ref[0] = last
				} else {
					virt.rotateLow()
					first := ref[0]
					copy(ref[:n-1], ref[1:])
					ref[n-1] = first
				}
			}
			for p := 0; p < n; p++ {
				v, r := virt.at(p), &ref[p]
				if v.flit != r.flit || v.itagOwner != r.itagOwner {
					t.Fatalf("divergence at position %d after op %#x: virt={%v %d} ref={%v %d}",
						p, op, v.flit, v.itagOwner, r.flit, r.itagOwner)
				}
			}
			occ := 0
			for p := 0; p < n; p++ {
				if ref[p].flit != nil {
					occ++
				}
			}
			if occ != virt.occ {
				t.Fatalf("occupancy counter %d, reference %d", virt.occ, occ)
			}
		}
	})
}
