package noc

import (
	"testing"
)

// buildCross builds a 2-ring mesh crossing: a vertical ring with a source
// and a horizontal ring with a sink, joined by an RBRG-L1 at their
// intersection.
func buildCross(t *testing.T) (*Network, *source, *sink, *RBRGL1) {
	t.Helper()
	net := NewNetwork("t")
	v := net.AddRing(10, true)
	h := net.AddRing(10, true)
	stSrc := v.AddStation(0)
	stBrV := v.AddStation(5)
	stBrH := h.AddStation(0)
	stDst := h.AddStation(5)
	src := newSource(t, net, stSrc, "src")
	dst := newSink(t, net, stDst, "dst", 4)
	cfg1 := DefaultRBRGL1Config()
	cfg1.InjectDepth, cfg1.EjectDepth, cfg1.ForwardPerCycle = 8, 8, 2
	br := NewRBRGL1(net, "rbrg-l1", cfg1, stBrV, stBrH)
	net.MustFinalize()
	return net, src, dst, br
}

func TestRBRGL1CrossRingDelivery(t *testing.T) {
	net, src, dst, br := buildCross(t)
	f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	src.queue(f)
	runCycles(net, 50)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d flits", len(dst.got))
	}
	if f.RingChanges != 1 {
		t.Fatalf("RingChanges = %d, want 1", f.RingChanges)
	}
	if br.Forwarded != 1 {
		t.Fatalf("bridge forwarded %d", br.Forwarded)
	}
	// 5 positions on the vertical ring + 5 on the horizontal.
	if f.Hops != 10 {
		t.Fatalf("hops = %d, want 10", f.Hops)
	}
}

func TestRBRGL1BulkBothDirections(t *testing.T) {
	net := NewNetwork("t")
	v := net.AddRing(8, true)
	h := net.AddRing(8, true)
	stA := v.AddStation(0)
	stBrV := v.AddStation(4)
	stBrH := h.AddStation(0)
	stB := h.AddStation(4)
	a := newSource(t, net, stA, "a")
	b := newSource(t, net, stB, "b")
	NewRBRGL1(net, "br", DefaultRBRGL1Config(), stBrV, stBrH)
	net.MustFinalize()
	const N = 100
	for i := 0; i < N; i++ {
		a.queue(net.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
		b.queue(net.NewFlit(b.Node(), a.Node(), KindData, LineBytes))
	}
	runCycles(net, 3000)
	if len(a.got) != N || len(b.got) != N {
		t.Fatalf("delivered a=%d b=%d, want %d each", len(a.got), len(b.got), N)
	}
	if net.InFlight() != 0 {
		t.Fatalf("in flight = %d", net.InFlight())
	}
}

// buildTwoDie builds two full rings (dies) joined by one RBRG-L2, with a
// source+sink pair on each die.
func buildTwoDie(t testing.TB, cfg RBRGL2Config) (*Network, [2]*source, [2]*sink, *RBRGL2) {
	t.Helper()
	net := NewNetwork("t")
	r0 := net.AddRing(10, true)
	r1 := net.AddRing(10, true)
	st0s := r0.AddStation(0)
	st0d := r0.AddStation(3)
	st0b := r0.AddStation(6)
	st1b := r1.AddStation(0)
	st1s := r1.AddStation(3)
	st1d := r1.AddStation(6)
	var srcs [2]*source
	var dsts [2]*sink
	srcs[0] = newSource(t, net, st0s, "src0")
	dsts[0] = newSink(t, net, st0d, "dst0", 4)
	srcs[1] = newSource(t, net, st1s, "src1")
	dsts[1] = newSink(t, net, st1d, "dst1", 4)
	br := NewRBRGL2(net, "rbrg-l2", cfg, st0b, st1b)
	net.MustFinalize()
	return net, srcs, dsts, br
}

func TestRBRGL2CrossDieDelivery(t *testing.T) {
	net, srcs, dsts, br := buildTwoDie(t, DefaultRBRGL2Config())
	f := net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes)
	srcs[0].queue(f)
	runCycles(net, 100)
	if len(dsts[1].got) != 1 {
		t.Fatalf("delivered %d", len(dsts[1].got))
	}
	if br.Transferred() != 1 {
		t.Fatalf("bridge transferred %d", br.Transferred())
	}
	if f.RingChanges == 0 {
		t.Fatal("flit never changed rings")
	}
}

func TestRBRGL2LinkLatencyIsVisible(t *testing.T) {
	slow := DefaultRBRGL2Config()
	slow.LinkLatency = 40
	measure := func(cfg RBRGL2Config) uint64 {
		net, srcs, dsts, _ := buildTwoDie(t, cfg)
		var lat uint64
		net.RecordLatency(func(f *Flit, cycles uint64) { lat = cycles })
		srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
		runCycles(net, 300)
		if lat == 0 {
			t.Fatal("no delivery")
		}
		return lat
	}
	fast := measure(DefaultRBRGL2Config())
	slowLat := measure(slow)
	if slowLat <= fast+20 {
		t.Fatalf("link latency not reflected: fast=%d slow=%d", fast, slowLat)
	}
}

// TestRBRGL2ZeroLinkLatencyIsOneCycle: the wire is never shorter than one
// cycle. A launch goes straight onto the far half's pipe, and side 1 ticks
// after side 0 in the same cycle, so an arrival stamp of "now" would let
// side 1 consume a side-0 launch the cycle it was made while the reverse
// direction waited a cycle. NewRBRGL2 takes a LinkLatency below 1 as 1:
// both directions then behave exactly like a one-cycle link.
func TestRBRGL2ZeroLinkLatencyIsOneCycle(t *testing.T) {
	run := func(linkLatency int) (lats []uint64, br *RBRGL2) {
		cfg := DefaultRBRGL2Config()
		cfg.LinkLatency = linkLatency
		net, srcs, dsts, br := buildTwoDie(t, cfg)
		net.RecordLatency(func(f *Flit, cycles uint64) { lats = append(lats, f.ID, cycles) })
		for i := 0; i < 40; i++ {
			srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
			srcs[1].queue(net.NewFlit(srcs[1].Node(), dsts[0].Node(), KindData, LineBytes))
		}
		runCycles(net, 1500)
		if len(dsts[0].got) != 40 || len(dsts[1].got) != 40 {
			t.Fatalf("LinkLatency %d: delivered %d and %d of 40", linkLatency, len(dsts[0].got), len(dsts[1].got))
		}
		return lats, br
	}
	want, _ := run(1)
	for _, l := range []int{0, -3} {
		got, br := run(l)
		if br.cfg.LinkLatency != 1 {
			t.Fatalf("LinkLatency %d built a %d-cycle link, want 1", l, br.cfg.LinkLatency)
		}
		if len(got) != len(want) {
			t.Fatalf("LinkLatency %d: %d latency samples, a one-cycle link gives %d", l, len(got)/2, len(want)/2)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LinkLatency %d: delivery %d is (flit, cycles) %d, a one-cycle link gives %d", l, i/2, got[i], want[i])
			}
		}
	}
}

func TestRBRGL2BidirectionalBulk(t *testing.T) {
	net, srcs, dsts, _ := buildTwoDie(t, DefaultRBRGL2Config())
	const N = 150
	for i := 0; i < N; i++ {
		srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
		srcs[1].queue(net.NewFlit(srcs[1].Node(), dsts[0].Node(), KindData, LineBytes))
	}
	runCycles(net, 5000)
	if len(dsts[0].got) != N || len(dsts[1].got) != N {
		t.Fatalf("delivered %d/%d and %d/%d", len(dsts[0].got), N, len(dsts[1].got), N)
	}
	if net.InFlight() != 0 {
		t.Fatalf("in flight = %d", net.InFlight())
	}
}

func TestRBRGL2MixedLocalAndRemote(t *testing.T) {
	net, srcs, dsts, _ := buildTwoDie(t, DefaultRBRGL2Config())
	const N = 60
	for i := 0; i < N; i++ {
		srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[0].Node(), KindData, LineBytes))
		srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
	}
	runCycles(net, 4000)
	if len(dsts[0].got) != N || len(dsts[1].got) != N {
		t.Fatalf("delivered local=%d remote=%d, want %d each", len(dsts[0].got), len(dsts[1].got), N)
	}
}

func TestThreeDieChainRouting(t *testing.T) {
	// die0 -- die1 -- die2: a flit from die0 to die2 must cross two
	// RBRG-L2 bridges.
	net := NewNetwork("t")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(8, true)
	r2 := net.AddRing(8, true)
	src := newSource(t, net, r0.AddStation(0), "src")
	dst := newSink(t, net, r2.AddStation(0), "dst", 4)
	cfg := DefaultRBRGL2Config()
	NewRBRGL2(net, "br01", cfg, r0.AddStation(4), r1.AddStation(0))
	NewRBRGL2(net, "br12", cfg, r1.AddStation(4), r2.AddStation(4))
	net.MustFinalize()
	f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	src.queue(f)
	runCycles(net, 200)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d", len(dst.got))
	}
	if f.RingChanges < 2 {
		t.Fatalf("RingChanges = %d, want >= 2", f.RingChanges)
	}
}

func TestParallelBridgesLoadBalance(t *testing.T) {
	// Two RBRG-L2 bridges between the same pair of rings: traffic must
	// use both.
	net := NewNetwork("t")
	r0 := net.AddRing(12, true)
	r1 := net.AddRing(12, true)
	src := newSource(t, net, r0.AddStation(0), "src")
	dst := newSink(t, net, r1.AddStation(0), "dst", 4)
	cfg := DefaultRBRGL2Config()
	brA := NewRBRGL2(net, "brA", cfg, r0.AddStation(4), r1.AddStation(4))
	brB := NewRBRGL2(net, "brB", cfg, r0.AddStation(8), r1.AddStation(8))
	net.MustFinalize()
	const N = 100
	for i := 0; i < N; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 3000)
	if len(dst.got) != N {
		t.Fatalf("delivered %d/%d", len(dst.got), N)
	}
	if brA.Transferred() == 0 || brB.Transferred() == 0 {
		t.Fatalf("load imbalance: brA=%d brB=%d", brA.Transferred(), brB.Transferred())
	}
}

func TestFinalizeRejectsUnreachableNode(t *testing.T) {
	net := NewNetwork("t")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(8, true) // disconnected
	newSource(t, net, r0.AddStation(0), "a")
	newSource(t, net, r1.AddStation(0), "b")
	if err := net.Finalize(); err == nil {
		t.Fatal("Finalize accepted a partitioned network")
	}
}

func TestFinalizeRejectsDoubleCall(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	newSource(t, net, r.AddStation(0), "a")
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err == nil {
		t.Fatal("second Finalize accepted")
	}
}
