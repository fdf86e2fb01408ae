package noc

import (
	"fmt"
	"testing"

	"chipletnoc/internal/sim"
)

// The hot-path micro-benchmarks: ring advance, the offset-mapped slot
// accessor, a busy station tick, a whole ring-cycle at four loads, and
// flit pool recycling. They exist so
// the virtual-rotation and pooling optimisations stay measurable in
// isolation — `go test -bench . ./internal/noc` — instead of only
// through the end-to-end benchmark (bench/).

// benchRing builds a finalized bidirectional ring with a source/sink
// pair on opposite sides and returns it mid-traffic, so the benchmarked
// paths see occupied slots, not an empty network.
func benchRing(b *testing.B, positions int) (*Network, *Ring) {
	b.Helper()
	net := NewNetwork("bench")
	r := net.AddRing(positions, true)
	src := newSource(b, net, r.AddStation(0), "src")
	dst := newSink(b, net, r.AddStation(positions/2), "dst", 1)
	net.MustFinalize()
	for i := 0; i < positions; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, 64))
	}
	for c := sim.Cycle(0); c < sim.Cycle(positions); c++ {
		net.Tick(c)
	}
	return net, r
}

func BenchmarkRingAdvance(b *testing.B) {
	_, r := benchRing(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.advance()
	}
}

func BenchmarkSlotAt(b *testing.B) {
	_, r := benchRing(b, 64)
	var live int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.slotAt(CW, i&63).flit != nil {
			live++
		}
	}
	_ = live
}

func BenchmarkStationTick(b *testing.B) {
	net, r := benchRing(b, 64)
	st := r.Station(0)
	now := sim.Cycle(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.now, r.now = now, now
		st.tick(now)
		now++
	}
}

func BenchmarkNetworkTick(b *testing.B) {
	net, _ := benchRing(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Tick(sim.Cycle(64 + i))
	}
}

func BenchmarkFlitAllocFree(b *testing.B) {
	net := NewNetwork("bench")
	r := net.AddRing(4, false)
	a := net.NewNode("a")
	net.Attach(a, r.AddStation(0))
	z := net.NewNode("z")
	net.Attach(z, r.AddStation(2))
	net.MustFinalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := net.NewFlit(a, z, KindData, 64)
		net.ReleaseFlit(f)
	}
}

// BenchmarkRingTick times one ring-cycle (advance plus the station phase,
// no devices) on a full ring with a station at every position but the
// last — 48 positions, one mask word, or 130, three — at several loads.
// The circulating flits are addressed to the station-less position, so
// they pass every station forever and the load never drains:
//
//   - idle: no flit anywhere — an empty visit set;
//   - quarter: every fourth slot of both loops occupied;
//   - saturated: every slot occupied, no interface has a head — what a
//     flit that is only passing costs;
//   - saturated-blocked-heads: every slot occupied and reserved for
//     someone else, and every interface has a head: it loses to the
//     on-the-fly flit each cycle and cannot arm its I-tag, so every
//     station is seen every cycle — the visit set's worst case;
//   - saturated-armed-heads: the same with unreserved slots: every head
//     arms on its first defeat and its station is parked from then on.
func BenchmarkRingTick(b *testing.B) {
	cases := []struct {
		name      string
		positions int
		stride    int // occupy every stride-th slot; 0 = none
		heads     bool
		reserved  bool // every slot carries someone else's I-tag
	}{
		{"idle", 48, 0, false, false},
		{"quarter", 48, 4, false, false},
		{"saturated", 48, 1, false, false},
		{"saturated-blocked-heads", 48, 1, true, true},
		{"saturated-armed-heads", 48, 1, true, false},
		{"quarter-130", 130, 4, false, false},
		{"saturated-armed-heads-130", 130, 1, true, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			positions := c.positions
			net := NewNetwork("bench")
			r := net.AddRing(positions, true)
			nodes := make([]NodeID, positions-1)
			ifaces := make([]*NodeInterface, positions-1)
			for p := range nodes {
				nodes[p] = net.NewNode(fmt.Sprintf("n%d", p))
				ifaces[p] = net.Attach(nodes[p], r.AddStation(p))
			}
			net.MustFinalize()
			occupied := 0
			if c.stride > 0 {
				for p := 0; p < positions; p += c.stride {
					placeFlit(r, &r.cw, p, &Flit{localDst: positions - 1})
					placeFlit(r, &r.ccw, p, &Flit{localDst: positions - 1})
					occupied += 2
				}
			}
			if c.reserved {
				// The key of an interface at the station-less position: nobody's.
				for i := range r.cw.slots {
					r.cw.slots[i].itagOwner = 2 * (positions - 1)
					r.ccw.slots[i].itagOwner = 2 * (positions - 1)
				}
			}
			if c.heads {
				// Alternate near targets either side so both loops are asked for.
				for p, ni := range ifaces {
					to := (p + 5) % len(nodes)
					if p%2 == 1 {
						to = (p + len(nodes) - 5) % len(nodes)
					}
					if !ni.Send(net.NewFlit(nodes[p], nodes[to], KindData, 64)) {
						b.Fatal("inject queue refused the head")
					}
				}
			}
			now := sim.Cycle(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.now = now
				net.ticks++
				r.advance()
				r.tick(now)
				now++
			}
			b.StopTimer()
			if r.occupancy() != occupied {
				b.Fatalf("load drained: %d flits left on the ring of %d", r.occupancy(), occupied)
			}
			if c.heads {
				if r.queued != len(ifaces) {
					b.Fatalf("%d heads left of %d: a blocked head injected", r.queued, len(ifaces))
				}
				// Lazily or one by one, every head lost every cycle.
				for _, ni := range ifaces {
					if ni.Starved() != net.ticks {
						b.Fatalf("a head counts %d defeats over %d cycles", ni.Starved(), net.ticks)
					}
					if ni.itagArmed == c.reserved {
						b.Fatalf("head armed: %v, slots reserved for others: %v", ni.itagArmed, c.reserved)
					}
				}
			}
		})
	}
}
