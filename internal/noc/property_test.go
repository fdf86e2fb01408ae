package noc

import (
	"testing"
	"testing/quick"

	"chipletnoc/internal/sim"
)

// randomRig builds a randomized multi-ring topology: 1-3 full/half rings
// in a chain joined by RBRG-L2 bridges, with 2-4 endpoints per ring, then
// drives random traffic between random endpoint pairs. It is the fixture
// for the conservation and termination properties.
type rigParams struct {
	Rings     uint8
	Positions uint8
	Endpoints uint8
	Flits     uint16
	Seed      uint64
	FullRings bool
}

func buildRandomRig(t testing.TB, p rigParams) (*Network, []*source) {
	t.Helper()
	nRings := int(p.Rings%3) + 1
	positions := int(p.Positions%12) + 8 // 8..19
	perRing := int(p.Endpoints%3) + 2    // 2..4
	net := NewNetwork("prop")
	var endpoints []*source
	var rings []*Ring
	for r := 0; r < nRings; r++ {
		ring := net.AddRing(positions, p.FullRings)
		rings = append(rings, ring)
		for e := 0; e < perRing; e++ {
			pos := e * (positions / (perRing + 1))
			st := ring.Station(pos)
			if st == nil {
				st = ring.AddStation(pos)
			}
			endpoints = append(endpoints, newSource(t, net, st, nodeName(r, e)))
		}
	}
	cfg := DefaultRBRGL2Config()
	for r := 0; r+1 < nRings; r++ {
		a := rings[r].Station(positions - 2)
		if a == nil {
			a = rings[r].AddStation(positions - 2)
		}
		b := rings[r+1].Station(positions - 3)
		if b == nil {
			b = rings[r+1].AddStation(positions - 3)
		}
		NewRBRGL2(net, "l2-"+nodeName(r, r+1), cfg, a, b)
	}
	net.MustFinalize()
	return net, endpoints
}

func nodeName(a, b int) string {
	return string([]byte{'n', byte('0' + a), '_', byte('0' + b)})
}

// TestPropertyConservation: every injected flit is delivered exactly once,
// regardless of topology shape and traffic pattern, and the network fully
// drains.
func TestPropertyConservation(t *testing.T) {
	f := func(p rigParams) bool {
		net, endpoints := buildRandomRig(t, p)
		rng := sim.NewRNG(p.Seed)
		nFlits := int(p.Flits%300) + 1
		for i := 0; i < nFlits; i++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
		}
		for chunk := 0; chunk < 60; chunk++ {
			runCycles(net, 1000)
			// The accounting invariant must hold at every cycle boundary,
			// not just after the drain.
			if err := net.CheckConservation(); err != nil {
				t.Logf("params %+v: cycle %d: %v", p, (chunk+1)*1000, err)
				return false
			}
		}
		if net.InFlight() != 0 {
			t.Logf("params %+v: in flight %d (inj=%d del=%d)",
				p, net.InFlight(), net.InjectedFlits, net.DeliveredFlits)
			return false
		}
		got := 0
		for _, e := range endpoints {
			got += len(e.got)
		}
		if uint64(got) != net.DeliveredFlits {
			t.Logf("params %+v: endpoint receipts %d != delivered %d", p, got, net.DeliveredFlits)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConservationUnderFaults: with random in-flight drops and
// payload corruptions hammering the network and a watchdog armed, the
// extended invariant Injected == Delivered + Dropped + in-network still
// holds at every sampled cycle, and the run still terminates with every
// flit accounted for.
func TestPropertyConservationUnderFaults(t *testing.T) {
	f := func(p rigParams) bool {
		net, endpoints := buildRandomRig(t, p)
		net.SetWatchdog(3000, 0)
		rng := sim.NewRNG(p.Seed ^ 0xfa017)
		nFlits := int(p.Flits%300) + 1
		for i := 0; i < nFlits; i++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
		}
		for cyc := 0; cyc < 60000; cyc++ {
			runCycles(net, 1)
			if cyc%97 == 0 {
				if live := net.LiveSlotCount(); live > 0 {
					net.DropLiveFlit(rng.Intn(live))
				}
			}
			if cyc%131 == 0 {
				if live := net.LiveSlotCount(); live > 0 {
					net.CorruptLiveFlit(rng.Intn(live))
				}
			}
			if cyc%251 == 0 {
				if err := net.CheckConservation(); err != nil {
					t.Logf("params %+v: cycle %d: %v", p, cyc, err)
					return false
				}
			}
		}
		if net.InFlight() != 0 {
			t.Logf("params %+v: in flight %d (inj=%d del=%d drop=%d)",
				p, net.InFlight(), net.InjectedFlits, net.DeliveredFlits, net.DroppedFlits)
			return false
		}
		if err := net.CheckConservation(); err != nil {
			t.Logf("params %+v: after drain: %v", p, err)
			return false
		}
		if net.InjectedFlits != net.DeliveredFlits+net.DroppedFlits {
			t.Logf("params %+v: injected %d != delivered %d + dropped %d",
				p, net.InjectedFlits, net.DeliveredFlits, net.DroppedFlits)
			return false
		}
		got := 0
		for _, e := range endpoints {
			got += len(e.got)
		}
		if uint64(got) != net.DeliveredFlits {
			t.Logf("params %+v: endpoint receipts %d != delivered %d", p, got, net.DeliveredFlits)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoDuplicateDelivery: flit IDs arrive at most once across the
// whole network.
func TestPropertyNoDuplicateDelivery(t *testing.T) {
	f := func(p rigParams) bool {
		net, endpoints := buildRandomRig(t, p)
		seen := make(map[uint64]int)
		net.RecordLatency(func(fl *Flit, _ uint64) { seen[fl.ID]++ })
		rng := sim.NewRNG(p.Seed ^ 0xabcd)
		for i := 0; i < 200; i++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
		}
		runCycles(net, 60000)
		for id, n := range seen {
			if n != 1 {
				t.Logf("params %+v: flit %d delivered %d times", p, id, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeliveryToCorrectNode: flits always arrive at their
// addressed destination.
func TestPropertyDeliveryToCorrectNode(t *testing.T) {
	f := func(p rigParams) bool {
		net, endpoints := buildRandomRig(t, p)
		byNode := make(map[NodeID]*source, len(endpoints))
		for _, e := range endpoints {
			byNode[e.Node()] = e
		}
		rng := sim.NewRNG(p.Seed ^ 0x1234)
		for i := 0; i < 150; i++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
		}
		runCycles(net, 60000)
		for _, e := range endpoints {
			for _, fl := range e.got {
				if fl.Dst != e.Node() {
					t.Logf("params %+v: flit for %d arrived at %d", p, fl.Dst, e.Node())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism: identical seeds and topologies produce
// identical cycle-by-cycle outcomes.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, uint64, uint64) {
		p := rigParams{Rings: 2, Positions: 6, Endpoints: 2, FullRings: true, Seed: seed}
		net, endpoints := buildRandomRig(t, p)
		rng := sim.NewRNG(seed)
		for i := 0; i < 250; i++ {
			src := endpoints[rng.Intn(len(endpoints))]
			dst := endpoints[rng.Intn(len(endpoints))]
			if src == dst {
				continue
			}
			src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
		}
		runCycles(net, 3000)
		return net.InjectedFlits, net.DeliveredFlits, net.Deflections
	}
	for seed := uint64(1); seed < 6; seed++ {
		i1, d1, f1 := run(seed)
		i2, d2, f2 := run(seed)
		if i1 != i2 || d1 != d2 || f1 != f2 {
			t.Fatalf("seed %d: nondeterministic (%d,%d,%d) vs (%d,%d,%d)", seed, i1, d1, f1, i2, d2, f2)
		}
	}
}

// TestPropertyHopsMatchShortestPathOnSingleRing: on an uncontended full
// ring, every flit's hop count equals the ring distance of the shorter
// direction.
func TestPropertyHopsMatchShortestPathOnSingleRing(t *testing.T) {
	f := func(srcPos, dstPos uint8, full bool) bool {
		positions := 16
		a := int(srcPos) % positions
		b := int(dstPos) % positions
		if a == b {
			return true
		}
		net := NewNetwork("t")
		r := net.AddRing(positions, full)
		src := newSource(t, net, r.AddStation(a), "src")
		dst := newSink(t, net, r.AddStation(b), "dst", 8)
		net.MustFinalize()
		fl := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
		src.queue(fl)
		runCycles(net, 3*positions)
		if len(dst.got) != 1 {
			return false
		}
		want := r.distance(CW, a, b)
		if full {
			if ccw := r.distance(CCW, a, b); ccw < want {
				want = ccw
			}
		}
		return fl.Hops == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
