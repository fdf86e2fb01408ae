package noc

import (
	"testing"

	"chipletnoc/internal/sim"
)

// buildPair returns a single full ring with a source at pos 0 and a sink
// at pos `sinkPos` on a ring of `positions` positions.
func buildPair(t *testing.T, positions, sinkPos, drainPer int) (*Network, *source, *sink) {
	t.Helper()
	net := NewNetwork("t")
	r := net.AddRing(positions, true)
	s0 := r.AddStation(0)
	s1 := r.AddStation(sinkPos)
	src := newSource(t, net, s0, "src")
	dst := newSink(t, net, s1, "dst", drainPer)
	net.MustFinalize()
	return net, src, dst
}

func TestSingleFlitDelivery(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	src.queue(f)
	runCycles(net, 20)
	if len(dst.got) != 1 || dst.got[0] != f {
		t.Fatalf("delivered %d flits", len(dst.got))
	}
	if net.DeliveredFlits != 1 || net.InjectedFlits != 1 {
		t.Fatalf("counters: inj=%d del=%d", net.InjectedFlits, net.DeliveredFlits)
	}
	if net.DeliveredBytes != LineBytes {
		t.Fatalf("DeliveredBytes = %d", net.DeliveredBytes)
	}
	if f.Hops != 3 {
		t.Fatalf("hops = %d, want 3 (CW 0->3)", f.Hops)
	}
	if f.Deflections != 0 {
		t.Fatalf("deflections = %d", f.Deflections)
	}
}

func TestShortestPathUsesCCW(t *testing.T) {
	net, src, dst := buildPair(t, 10, 8, 8)
	f := net.NewFlit(src.Node(), dst.Node(), KindRequest, 0)
	src.queue(f)
	runCycles(net, 20)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d flits", len(dst.got))
	}
	if f.Hops != 2 {
		t.Fatalf("hops = %d, want 2 (CCW 0->8)", f.Hops)
	}
}

func TestHalfRingDeliversTheLongWay(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(10, false)
	s0 := r.AddStation(0)
	s1 := r.AddStation(8)
	src := newSource(t, net, s0, "src")
	dst := newSink(t, net, s1, "dst", 8)
	net.MustFinalize()
	f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	src.queue(f)
	runCycles(net, 20)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d flits", len(dst.got))
	}
	if f.Hops != 8 {
		t.Fatalf("hops = %d, want 8 (half ring is CW-only)", f.Hops)
	}
}

func TestLatencyIncludesQueueing(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	var lat []uint64
	net.RecordLatency(func(f *Flit, cycles uint64) { lat = append(lat, cycles) })
	src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	runCycles(net, 20)
	if len(lat) != 1 {
		t.Fatalf("latency samples = %d", len(lat))
	}
	// Created on Send (cycle 0 device phase), injected next station
	// phase, 3 hops of wire: total must be >= 3 and small.
	if lat[0] < 3 || lat[0] > 8 {
		t.Fatalf("latency = %d cycles", lat[0])
	}
}

func TestManyFlitsAllDelivered(t *testing.T) {
	net, src, dst := buildPair(t, 16, 9, 8)
	const N = 200
	for i := 0; i < N; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 2000)
	if len(dst.got) != N {
		t.Fatalf("delivered %d/%d", len(dst.got), N)
	}
	if net.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", net.InFlight())
	}
	// FIFO source to one destination over one direction keeps order.
	for i := 1; i < len(dst.got); i++ {
		if dst.got[i].ID < dst.got[i-1].ID {
			t.Fatalf("out of order delivery at %d", i)
		}
	}
}

func TestEjectBackpressureDeflectsAndETagRecovers(t *testing.T) {
	// Two sources feed one sink from both directions (2 flits/cycle
	// arriving) while the sink drains only 1/cycle: the eject queue must
	// overflow, deflect flits, arm E-tags, and still deliver everything
	// with bounded deflections.
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	stA := r.AddStation(1)
	stB := r.AddStation(7)
	stD := r.AddStation(4)
	srcA := newSource(t, net, stA, "srcA")
	srcB := newSource(t, net, stB, "srcB")
	dst := newSink(t, net, stD, "dst", 1)
	net.MustFinalize()
	const N = 40
	for i := 0; i < N; i++ {
		srcA.queue(net.NewFlit(srcA.Node(), dst.Node(), KindData, LineBytes))
		srcB.queue(net.NewFlit(srcB.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 1500)
	if len(dst.got) != 2*N {
		t.Fatalf("delivered %d/%d (deflections=%d)", len(dst.got), 2*N, net.Deflections)
	}
	if net.Deflections == 0 {
		t.Fatal("expected deflections under eject backpressure")
	}
	for _, f := range dst.got {
		// E-tag guarantee: a reservation forms after the first failed
		// ejection, so a flit cannot be bounced unboundedly. Allow a
		// couple of laps of slack for reservation ordering.
		if f.Deflections > 6 {
			t.Fatalf("flit %d deflected %d times", f.ID, f.Deflections)
		}
	}
}

func TestETagReservationIsHonored(t *testing.T) {
	// Direct unit test of the interface-level E-tag logic.
	net := NewNetwork("t")
	r := net.AddRing(4, false)
	st := r.AddStation(0)
	node := net.NewNode("n")
	ni := net.AttachQueued(node, st, 2, 1) // eject capacity 1
	a := &Flit{ID: 1}
	b := &Flit{ID: 2}
	if !ni.tryEject(a) {
		t.Fatal("first eject must succeed")
	}
	if ni.tryEject(b) {
		t.Fatal("second eject must fail: queue full")
	}
	// Drain; the freed entry must be reserved for b, not first-come.
	if got := ni.Recv(); got != a {
		t.Fatalf("Recv = %v", got)
	}
	c := &Flit{ID: 3}
	if ni.tryEject(c) {
		t.Fatal("newcomer stole b's reserved entry")
	}
	if !ni.tryEject(b) {
		t.Fatal("reserved flit rejected")
	}
	if len(ni.reserved) != 0 {
		t.Fatal("reservation not consumed")
	}
}

func TestITagBreaksStarvation(t *testing.T) {
	// Saturate a 3-station ring: an upstream source floods the ring with
	// flits to a slow sink so a downstream source starves; the I-tag
	// must still get its flit on.
	net := NewNetwork("t")
	r := net.AddRing(6, false) // half ring: all traffic one way
	stA := r.AddStation(0)
	stB := r.AddStation(2)
	stC := r.AddStation(4)
	flooder := newSource(t, net, stA, "flooder")
	victim := newSource(t, net, stB, "victim")
	dst := newSink(t, net, stC, "dst", 1)
	net.MustFinalize()
	for i := 0; i < 300; i++ {
		flooder.queue(net.NewFlit(flooder.Node(), dst.Node(), KindData, LineBytes))
	}
	// Warm up so the flood stream continuously occupies the slots
	// passing the victim's station before the victim tries to inject.
	runCycles(net, 50)
	victim.queue(net.NewFlit(victim.Node(), dst.Node(), KindData, LineBytes))
	runCycles(net, 350)
	// The victim's single flit must have been injected and delivered
	// long before the flood drains.
	found := false
	for _, f := range dst.got {
		if f.Src == victim.Node() {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("victim flit starved (delivered %d flood flits, victim starved %d cycles)",
			len(dst.got), victim.iface.Starved())
	}
	if victim.iface.Starved() == 0 {
		t.Fatal("test did not create contention; flood too weak to exercise I-tag")
	}
}

func TestITagReleaseOnInjection(t *testing.T) {
	// After a starved interface finally injects, no slot may keep a
	// stale reservation.
	net := NewNetwork("t")
	r := net.AddRing(6, false)
	stA := r.AddStation(0)
	stB := r.AddStation(2)
	stC := r.AddStation(4)
	flooder := newSource(t, net, stA, "flooder")
	victim := newSource(t, net, stB, "victim")
	dst := newSink(t, net, stC, "dst", 2)
	net.MustFinalize()
	for i := 0; i < 100; i++ {
		flooder.queue(net.NewFlit(flooder.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 30)
	victim.queue(net.NewFlit(victim.Node(), dst.Node(), KindData, LineBytes))
	runCycles(net, 770)
	for i := range r.cw.slots {
		if r.cw.slots[i].itagOwner != noTag {
			t.Fatalf("slot %d still reserved by %d after drain", i, r.cw.slots[i].itagOwner)
		}
	}
	if victim.iface.itagArmed {
		t.Fatal("armed flag stuck")
	}
}

func TestLocalTransferSameStation(t *testing.T) {
	// Two devices on the same station exchange flits without using the
	// ring at all.
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	st := r.AddStation(0)
	a := newSource(t, net, st, "a")
	b := newSink(t, net, st, "b", 4)
	net.MustFinalize()
	f := net.NewFlit(a.Node(), b.Node(), KindData, LineBytes)
	a.queue(f)
	runCycles(net, 5)
	if len(b.got) != 1 {
		t.Fatalf("local transfer failed: %d", len(b.got))
	}
	if f.Hops != 0 {
		t.Fatalf("local transfer used the ring: hops=%d", f.Hops)
	}
}

func TestSendRejectsSelfAndNil(t *testing.T) {
	net, src, _ := buildPair(t, 8, 4, 1)
	mustPanic(t, func() {
		src.iface.Send(net.NewFlit(src.Node(), src.Node(), KindData, 0))
	})
	mustPanic(t, func() { src.iface.Send(nil) })
}

func TestInjectQueueBackpressure(t *testing.T) {
	net, src, dst := buildPair(t, 8, 4, 8)
	fill := 0
	for i := 0; i < DefaultInjectDepth+5; i++ {
		if src.iface.Send(net.NewFlit(src.Node(), dst.Node(), KindData, 0)) {
			fill++
		}
	}
	if fill != DefaultInjectDepth {
		t.Fatalf("accepted %d, want %d", fill, DefaultInjectDepth)
	}
}

func TestStationRoundRobinFairness(t *testing.T) {
	// Two interfaces on one station compete for the same direction; the
	// round-robin arbiter must alternate.
	net := NewNetwork("t")
	r := net.AddRing(12, false)
	st0 := r.AddStation(0)
	st1 := r.AddStation(6)
	a := newSource(t, net, st0, "a")
	b := newSource(t, net, st0, "b")
	dst := newSink(t, net, st1, "dst", 4)
	net.MustFinalize()
	for i := 0; i < 50; i++ {
		a.queue(net.NewFlit(a.Node(), dst.Node(), KindData, LineBytes))
		b.queue(net.NewFlit(b.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 600)
	if len(dst.got) != 100 {
		t.Fatalf("delivered %d/100", len(dst.got))
	}
	diff := int(a.iface.Injected) - int(b.iface.Injected)
	if diff < -2 || diff > 2 {
		t.Fatalf("unfair arbitration: a=%d b=%d", a.iface.Injected, b.iface.Injected)
	}
}

func TestThirdInterfacePanics(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	st := r.AddStation(0)
	newSource(t, net, st, "a")
	newSource(t, net, st, "b")
	mustPanic(t, func() { newSource(t, net, st, "c") })
}

func TestOnTheFlyPriority(t *testing.T) {
	// A passing flit must never be displaced by an injection: run a
	// saturated half-ring and check no flit is ever lost.
	net := NewNetwork("t")
	r := net.AddRing(6, false)
	stations := []*CrossStation{r.AddStation(0), r.AddStation(2), r.AddStation(4)}
	srcs := make([]*source, 3)
	for i, st := range stations {
		srcs[i] = newSource(t, net, st, string(rune('a'+i)))
	}
	net.MustFinalize()
	const per = 60
	for i, s := range srcs {
		dst := srcs[(i+1)%3]
		for j := 0; j < per; j++ {
			s.queue(net.NewFlit(s.Node(), dst.Node(), KindData, LineBytes))
		}
	}
	runCycles(net, 2500)
	total := len(srcs[0].got) + len(srcs[1].got) + len(srcs[2].got)
	if total != 3*per {
		t.Fatalf("delivered %d/%d", total, 3*per)
	}
	if net.InFlight() != 0 {
		t.Fatalf("in flight = %d", net.InFlight())
	}
}

// TestHeadSummaryTracksHeads drives the four wholesale rewrites of
// interface queues — live reroute, watchdog sweep, dead-bridge queue drop,
// checkpoint load — on a loaded two-ring network and has
// CheckConservation recount every station's head summary after each one.
// Each step first proves it rewrote something, so a refresh site that
// went missing cannot hide behind a step that happened to change no head.
func TestHeadSummaryTracksHeads(t *testing.T) {
	load := func(net *Network, a, b *source) {
		for i := 0; i < 400; i++ {
			a.queue(net.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
			b.queue(net.NewFlit(b.Node(), a.Node(), KindData, LineBytes))
		}
		runCycles(net, 150)
	}
	recount := func(net *Network, after string) {
		t.Helper()
		if err := net.CheckConservation(); err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
	}
	heads := func(net *Network) (n int) {
		for _, r := range net.Rings() {
			for _, st := range r.stations {
				for _, w := range st.want {
					if w != wantNone {
						n++
					}
				}
			}
		}
		return n
	}

	net, a, b := buildParallelBridgeRig(t)
	load(net, a, b)
	if heads(net) < 4 {
		t.Fatalf("only %d interfaces have a head; the rig is not loaded", heads(net))
	}
	recount(net, "load")

	// Checkpoint restore into a fresh build: the twin's summary comes
	// from the decoded queues alone.
	e := sim.NewEncoder()
	if err := net.SnapState(sim.Saving(e)); err != nil {
		t.Fatal(err)
	}
	twin, _, _ := buildParallelBridgeRig(t)
	if err := twin.SnapState(sim.Loading(sim.NewDecoder(e.Data()))); err != nil {
		t.Fatal(err)
	}
	if got, want := heads(twin), heads(net); got != want {
		t.Fatalf("restored network summarises %d heads, the original %d", got, want)
	}
	recount(twin, "checkpoint restore")

	// Bridge kill: queued flits bound for br0 turn round towards br1.
	// br0's stations are frozen across the kill so the heads its
	// interfaces hold are still there for the drop below.
	br0, _ := net.NodeByName("br0")
	for _, ni := range net.nodes[br0].ifaces {
		if err := net.StallStation(ni.Ring().ID(), ni.station.pos, 3); err != nil {
			t.Fatal(err)
		}
	}
	runCycles(net, 1)
	rerouted := net.ReroutedFlits
	if err := net.FailBridge(br0); err != nil {
		t.Fatal(err)
	}
	if net.ReroutedFlits == rerouted {
		t.Fatal("the kill rerouted nothing")
	}
	recount(net, "reroute on bridge kill")

	// The dead bridge's next tick drops what its interfaces queue.
	for _, ni := range net.nodes[br0].ifaces {
		if ni.head() == nil {
			t.Fatal("a dead bridge interface has no head to drop")
		}
	}
	runCycles(net, 1)
	for _, ni := range net.nodes[br0].ifaces {
		if ni.head() != nil {
			t.Fatal("the dead bridge kept a queued head")
		}
	}
	recount(net, "dead-bridge queue drop")

	runCycles(net, 50)
	rerouted = net.ReroutedFlits
	if err := net.RepairBridge(br0); err != nil {
		t.Fatal(err)
	}
	if net.ReroutedFlits == rerouted {
		t.Fatal("the repair rerouted nothing")
	}
	recount(net, "reroute on bridge repair")

	// A one-cycle age budget reaps every queue, heads included.
	load(net, a, b)
	net.SetWatchdog(1, 1)
	reaped := net.WatchdogDrops
	runCycles(net, 1)
	if net.WatchdogDrops == reaped {
		t.Fatal("the watchdog reaped nothing")
	}
	recount(net, "watchdog sweep")
	runCycles(net, 200)
	recount(net, "running on")
}
