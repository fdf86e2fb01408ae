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
					placeFlit(r, &r.cw, p, &Flit{localDst: int32(positions - 1)})
					placeFlit(r, &r.ccw, p, &Flit{localDst: int32(positions - 1)})
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

// loopDevice is BenchmarkDeviceLoop's device: busy, it has work every
// cycle; otherwise it waits for an ejection.
type loopDevice struct {
	Port
	busy bool
	work int
}

func (d *loopDevice) Name() string   { return "loop" }
func (d *loopDevice) Tick(sim.Cycle) { d.work++ }
func (d *loopDevice) IdleUntil(now sim.Cycle) sim.Cycle {
	if d.busy || d.Iface.EjectLen() > 0 {
		return now
	}
	return Never
}

// BenchmarkDeviceLoop times one cycle of the device loop alone
// (tickDevices, no rings) over the 291 devices of the benchmark's quad-die
// package, each on a node of its own, and reports how many it ticked:
//
//   - all-asleep: every device waits for an ejection — an empty awake set;
//   - one-in-six-awake: what the saturated quad-die leaves awake;
//   - all-awake: every device has work every cycle — the loop's worst
//     case, a Tick and an IdleUntil each;
//   - all-blocked: every device is a sender with a backlog behind a full
//     inject queue, on a ring whose every slot is taken by a flit that only
//     passes, so no Send can succeed: asleep until a pop that never comes.
func BenchmarkDeviceLoop(b *testing.B) {
	const devices, positions = 291, 300
	cases := []struct {
		name      string
		busyEvery int // every n-th device has work every cycle; 0 = none
		blocked   bool
	}{
		{"all-asleep", 0, false},
		{"one-in-six-awake", 6, false},
		{"all-awake", 1, false},
		{"all-blocked", 0, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			net := NewNetwork("bench")
			r := net.AddRing(positions, true)
			var srcs []*source
			busy := 0
			for i := 0; i < devices; i++ {
				if c.blocked {
					srcs = append(srcs, newSource(b, net, r.AddStation(i), fmt.Sprintf("d%d", i)))
					continue
				}
				d := &loopDevice{busy: c.busyEvery > 0 && i%c.busyEvery == 0}
				d.Port = net.Plug(d, fmt.Sprintf("d%d", i), r.AddStation(i))
				if d.busy {
					busy++
				}
			}
			net.MustFinalize()
			if c.blocked {
				for p := 0; p < positions; p++ {
					placeFlit(r, &r.cw, p, &Flit{localDst: positions - 1})
					placeFlit(r, &r.ccw, p, &Flit{localDst: positions - 1})
				}
				for i, s := range srcs {
					for k := 0; k < DefaultInjectDepth+4; k++ {
						s.queue(net.NewFlit(s.Node(), srcs[(i+7)%devices].Node(), KindData, 64))
					}
				}
			}
			cycle := func() {
				now := sim.Cycle(net.ticks)
				net.now = now
				net.ticks++
				net.tickDevices(now)
			}
			net.bindGates()
			cycle() // everything ticks once: sleepers go to sleep, senders fill their queues
			ran := func() (ticks uint64) {
				for _, k := range net.DeviceTicksByKind() {
					ticks += k.Ticks
				}
				return ticks
			}
			before := ran()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			ticked := ran() - before
			b.ReportMetric(float64(ticked)/float64(b.N), "ticks/cycle")
			if want := uint64(busy * b.N); ticked != want {
				b.Fatalf("%d device ticks in %d cycles, want %d", ticked, b.N, want)
			}
			for _, s := range srcs {
				if s.Iface.InjectSpace() != 0 || len(s.pending) != 4 {
					b.Fatalf("%s holds %d flits behind %d free inject entries, want 4 behind a full queue", s.name, len(s.pending), s.Iface.InjectSpace())
				}
			}
			if err := net.checkAwakeSet(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
