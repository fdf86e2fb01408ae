package noc

import (
	"strings"
	"testing"
)

func TestRingDistanceAndShortestDir(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(10, true)
	if d := r.distance(CW, 2, 5); d != 3 {
		t.Fatalf("CW 2->5 = %d", d)
	}
	if d := r.distance(CCW, 2, 5); d != 7 {
		t.Fatalf("CCW 2->5 = %d", d)
	}
	if d := r.distance(CW, 8, 1); d != 3 {
		t.Fatalf("CW 8->1 = %d", d)
	}
	if got := r.shortestDir(2, 5); got != CW {
		t.Fatalf("shortestDir(2,5) = %v", got)
	}
	if got := r.shortestDir(2, 9); got != CCW {
		t.Fatalf("shortestDir(2,9) = %v", got)
	}
	// Exactly opposite: tie breaks clockwise.
	if got := r.shortestDir(0, 5); got != CW {
		t.Fatalf("shortestDir(0,5) = %v", got)
	}
}

func TestHalfRingAlwaysCW(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(10, false)
	if got := r.shortestDir(2, 1); got != CW {
		t.Fatalf("half ring must route CW, got %v", got)
	}
	if r.ccw.slots != nil {
		t.Fatal("half ring must not allocate a CCW loop")
	}
}

// placeFlit puts a flit directly into a loop slot at a logical position,
// maintaining the occupancy counter, the visit-set masks and the boarding
// stamp the way a real injection would — the test-side stand-in for
// CrossStation.inject. Unlike a real injection it may address a position
// without a station (a flit that passes every station forever); the
// calendar must not send the ring tick there, so that entry is taken out
// again.
func placeFlit(r *Ring, l *loop, pos int, f *Flit) {
	s := l.at(pos)
	if s.flit != nil {
		panic("placeFlit: slot occupied")
	}
	l.board(s, pos, f)
	f.boarded = r.now
	if r.stationAt[f.localDst] == nil {
		word, bit := l.expected(pos, int(f.localDst))
		*word &^= bit
	}
}

func TestRingAdvanceRotation(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(4, true)
	f1, f2 := &Flit{ID: 1}, &Flit{ID: 2}
	placeFlit(r, &r.cw, 0, f1)
	placeFlit(r, &r.ccw, 3, f2)
	net.now, r.now = 1, 1 // the advance below belongs to cycle 1
	r.advance()
	if r.cw.at(1).flit != f1 {
		t.Fatal("CW slot did not move 0 -> 1")
	}
	if r.ccw.at(2).flit != f2 {
		t.Fatal("CCW slot did not move 3 -> 2")
	}
	// Hop accounting: the network-wide counter accumulates at advance
	// time from the occupancy counters; per-flit hops materialise on
	// demand.
	if net.TotalHops != 2 {
		t.Fatalf("TotalHops = %d, want 2", net.TotalHops)
	}
	r.settleHops(f1)
	r.settleHops(f2)
	if f1.Hops != 1 || f2.Hops != 1 {
		t.Fatalf("hops = %d,%d", f1.Hops, f2.Hops)
	}
	// Wrap-around.
	for i := 0; i < 3; i++ {
		r.advance()
	}
	if r.cw.at(0).flit != f1 || r.ccw.at(3).flit != f2 {
		t.Fatal("slots did not wrap around the loop")
	}
}

func TestRingAdvanceCarriesITags(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(4, false)
	r.cw.at(0).itagOwner = 7
	r.advance()
	if r.cw.at(1).itagOwner != 7 {
		t.Fatal("I-tag did not circulate with its slot")
	}
	if r.cw.at(0).itagOwner != noTag {
		t.Fatal("vacated position kept the tag")
	}
}

func TestAddStationOrderingAndBounds(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(10, true)
	r.AddStation(7)
	r.AddStation(2)
	r.AddStation(5)
	got := []int{r.stations[0].pos, r.stations[1].pos, r.stations[2].pos}
	if got[0] != 2 || got[1] != 5 || got[2] != 7 {
		t.Fatalf("stations not position-ordered: %v", got)
	}
	if st := r.AddStation(2); st != r.stations[0] || len(r.stations) != 3 {
		t.Fatal("a second AddStation at a position placed another station")
	}
	r.AddStation(10)
	if err := net.Finalize(); err == nil || !strings.Contains(err.Error(), "outside ring") {
		t.Fatalf("Finalize after a station past the ring: %v", err)
	}
}

func TestRingOccupancy(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(4, true)
	if r.occupancy() != 0 {
		t.Fatal("fresh ring not empty")
	}
	placeFlit(r, &r.cw, 1, &Flit{})
	placeFlit(r, &r.ccw, 2, &Flit{})
	if r.occupancy() != 2 {
		t.Fatalf("occupancy = %d", r.occupancy())
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
