package noc

import (
	"testing"

	"chipletnoc/internal/sim"
)

// The hot-path micro-benchmarks: ring advance, the offset-mapped slot
// accessor, a busy station tick, and flit pool recycling. They exist so
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
