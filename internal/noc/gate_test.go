package noc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"chipletnoc/internal/metrics"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// gateRig is a three-ring fabric with one bridge of each kind — r0 and r1
// joined by an RBRG-L2, r1 and r2 by an RBRG-L1 — and a scripted source
// and a sink on every ring. The sources release seeded random bursts with
// random idle gaps between them, so a run alternates between busy
// stretches (deflections, bridge backpressure) and stretches in which
// single rings, single devices, or the whole network have nothing to do.
type gateRig struct {
	net  *Network
	srcs []*source
	snks []*sink
	l2   *RBRGL2
	l1   *RBRGL1
}

func buildGateRig(t testing.TB, seed uint64, maxGap int) *gateRig {
	t.Helper()
	net := NewNetwork("gate")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(10, true)
	r2 := net.AddRing(6, false)
	g := &gateRig{net: net}
	g.srcs = []*source{
		newSource(t, net, r0.AddStation(0), "src0"),
		newSource(t, net, r1.AddStation(2), "src1"),
		newSource(t, net, r2.AddStation(2), "src2"),
	}
	g.snks = []*sink{
		newSink(t, net, r0.AddStation(3), "snk0", 1),
		newSink(t, net, r1.AddStation(7), "snk1", 2),
		newSink(t, net, r2.AddStation(4), "snk2", 1),
	}
	l2 := DefaultRBRGL2Config()
	l2.LinkLatency = 4
	g.l2 = NewRBRGL2(net, "l2", l2, r0.AddStation(5), r1.AddStation(0))
	l1 := DefaultRBRGL1Config()
	l1.InjectDepth, l1.EjectDepth, l1.ForwardPerCycle = 4, 4, 1
	g.l1 = NewRBRGL1(net, "l1", l1, r1.AddStation(5), r2.AddStation(0))
	net.MustFinalize()

	rng := sim.NewRNG(seed)
	at := sim.Cycle(0)
	for burst := 0; burst < 24; burst++ {
		at += sim.Cycle(rng.Intn(maxGap + 1))
		for n := 1 + rng.Intn(14); n > 0; n-- {
			src, dst := g.srcs[rng.Intn(3)], g.snks[rng.Intn(3)]
			src.queueAt(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes), at)
		}
	}
	return g
}

// gateOutcome is everything a run of the rig can be observed by.
type gateOutcome struct {
	injected, delivered, dropped, deflections, hops uint64
	ticks                                           uint64
	got                                             string // per-sink delivery order
	latFNV, traceFNV                                uint64
	metrics, ckpt                                   string
}

// observeRig attaches every observer to the rig, lets run drive it, and
// collects the outcome.
func observeRig(t testing.TB, g *gateRig, run func()) gateOutcome {
	t.Helper()
	net := g.net
	reg := metrics.New(64)
	net.EnableMetrics(reg)
	tr := trace.New(1 << 16)
	net.Tracer = tr
	lat := fnv.New64a()
	net.RecordLatency(func(f *Flit, cycles uint64) { fmt.Fprintf(lat, "%d|%d\n", f.ID, cycles) })
	run()
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	out := gateOutcome{
		injected: net.InjectedFlits, delivered: net.DeliveredFlits, dropped: net.DroppedFlits,
		deflections: net.Deflections, hops: net.TotalHops, ticks: net.ticks,
		latFNV: lat.Sum64(),
	}
	for _, s := range g.snks {
		out.got += "|"
		for _, f := range s.got {
			out.got += fmt.Sprintf("%d,", f.ID)
		}
	}
	th := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(th, "%d|%d|%d|%s|%s\n", e.Cycle, e.Kind, e.FlitID, e.Where, e.Detail)
	}
	out.traceFNV = th.Sum64()
	var mb, cb bytes.Buffer
	if err := reg.Snapshot("gate", net.ticks).WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(&cb, net, nil); err != nil {
		t.Fatal(err)
	}
	out.metrics, out.ckpt = mb.String(), cb.String()
	return out
}

// TestGatedEnginesMatchForcedAwake is the in-package differential: the
// rig under the gated engine, in one Run call and sliced into several,
// must equal the forced-awake reference in counters, delivery order,
// latency stream, trace event stream, metrics export and checkpoint bytes
// — over dense traffic, sparse traffic that leaves single components
// idle, and traffic so sparse that whole stretches are jumped.
func TestGatedEnginesMatchForcedAwake(t *testing.T) {
	const cycles = 1500
	for _, maxGap := range []int{0, 30, 200} {
		for seed := uint64(1); seed <= 3; seed++ {
			ref := buildGateRig(t, seed, maxGap)
			ref.net.forceAwake = true
			want := observeRig(t, ref, func() { ref.net.Run(cycles) })
			if n := ref.net; n.SkippedCycles+n.RingTicksSkipped+n.StationTicksSkipped+n.DeviceTicksSkipped != 0 {
				t.Fatalf("forced-awake reference skipped work")
			}

			engines := []struct {
				name string
				run  func(*Network)
			}{
				{"gated", func(n *Network) { n.Run(cycles) }},
				{"gated-sliced", func(n *Network) {
					for done := 0; done < cycles; done += 250 {
						n.Run(250)
					}
				}},
			}
			for _, e := range engines {
				g := buildGateRig(t, seed, maxGap)
				got := observeRig(t, g, func() { e.run(g.net) })
				if got != want {
					t.Errorf("maxGap=%d seed=%d %s: diverged from forced-awake\n got: %s\nwant: %s",
						maxGap, seed, e.name, got.brief(), want.brief())
				}
				n := g.net
				if n.RingTicksSkipped == 0 || n.DeviceTicksSkipped == 0 {
					t.Errorf("maxGap=%d seed=%d %s: gate never closed (%d ring, %d device ticks skipped)",
						maxGap, seed, e.name, n.RingTicksSkipped, n.DeviceTicksSkipped)
				}
				if maxGap == 200 && n.SkippedCycles == 0 {
					t.Errorf("maxGap=%d seed=%d %s: no quiescent stretch was jumped", maxGap, seed, e.name)
				}
			}
		}
	}
}

// sleepersWakeAt returns the cycle the earliest sleeper of n asked to be
// woken at, 0 if one of them is awake (the rig has no polled device).
func sleepersWakeAt(n *Network) sim.Cycle {
	for w, polled := range n.polled {
		if n.awake[w]&^polled != 0 {
			return 0
		}
	}
	return n.cal.next()
}

// brief renders an outcome without its bulky members.
func (o gateOutcome) brief() string {
	h := func(s string) uint64 { f := fnv.New64a(); f.Write([]byte(s)); return f.Sum64() }
	return fmt.Sprintf("inj=%d del=%d drop=%d defl=%d hops=%d ticks=%d got=%x lat=%x trace=%x metrics=%x ckpt=%x(%dB)",
		o.injected, o.delivered, o.dropped, o.deflections, o.hops, o.ticks,
		h(o.got), o.latFNV, o.traceFNV, h(o.metrics), h(o.ckpt), len(o.ckpt))
}

// TestResumeFromCheckpointInsideIdleStretch stops the rig in the middle of
// a jumped stretch (Run's remaining-cycles clamp ends the jump there),
// checkpoints with rings behind on rotation and every device asleep, and
// requires: the bytes equal the forced-awake engine's at the same cycle;
// a twin restored from them — gated or forced awake — finishes exactly
// like the uninterrupted run. Wake state
// and rotation lag are derived, so nothing of them may be in the file.
func TestResumeFromCheckpointInsideIdleStretch(t *testing.T) {
	const seed, maxGap, full = 2, 200, 1500
	// Find a cycle strictly inside a jumped stretch.
	probe := buildGateRig(t, seed, maxGap)
	stop := 0
	for c := 0; c < full; c++ {
		before := probe.net.SkippedCycles
		probe.net.Run(1)
		if probe.net.SkippedCycles > before || sleepersWakeAt(probe.net) > sim.Cycle(c)+40 {
			// Run(1) can never jump (nothing remains); every device asleep
			// for a while yet, with idle rings, is what a longer Run would
			// have jumped over.
			idle := true
			for _, r := range probe.net.rings {
				idle = idle && r.idle()
			}
			if idle && c > 100 {
				stop = c + 20
				break
			}
		}
	}
	if stop == 0 {
		t.Fatal("rig never went quiescent; the test needs an idle stretch")
	}

	uninterrupted := buildGateRig(t, seed, maxGap)
	want := observeRig(t, uninterrupted, func() { uninterrupted.net.Run(full) })

	checkpointAt := func(force bool) (string, uint64) {
		g := buildGateRig(t, seed, maxGap)
		g.net.forceAwake = force
		g.net.Run(stop)
		var b bytes.Buffer
		if err := WriteCheckpoint(&b, g.net, nil); err != nil {
			t.Fatal(err)
		}
		return b.String(), g.net.SkippedCycles
	}
	gated, skipped := checkpointAt(false)
	forced, _ := checkpointAt(true)
	if skipped == 0 {
		t.Fatalf("no cycle was jumped before the checkpoint at %d", stop)
	}
	if gated != forced {
		t.Fatalf("checkpoint at cycle %d inside an idle stretch differs between gated and forced-awake engines", stop)
	}

	for _, resume := range []struct {
		name  string
		force bool
	}{{"gated", false}, {"forced-awake", true}} {
		g := buildGateRig(t, seed, maxGap)
		for _, s := range g.srcs {
			s.pending, s.release = nil, nil // everything comes from the file
		}
		got := observeRig(t, g, func() {
			if _, err := ReadCheckpoint(bytes.NewReader([]byte(gated)), g.net); err != nil {
				t.Fatal(err)
			}
			g.net.forceAwake = resume.force
			g.net.Run(full - stop)
		})
		// The resumed run's observers attach at the checkpoint, so only
		// what the final state determines is comparable.
		if got.ckpt != want.ckpt || got.got != want.got || got.ticks != want.ticks ||
			got.delivered != want.delivered || got.hops != want.hops {
			t.Errorf("%s resume diverged\n got: %s\nwant: %s", resume.name, got.brief(), want.brief())
		}
	}
}

// TestJumpStopsAtBoundaries pins the jump's clamps: a jumped stretch
// never swallows a watchdog sweep or a
// metrics sample (both still fire on their exact cycles — the sample
// series and the sweep-driven drops are compared with the forced-awake
// engine by TestGatedEnginesMatchForcedAwake; here the cycle arithmetic
// is checked directly) and never overruns the Run call.
func TestJumpStopsAtBoundaries(t *testing.T) {
	g := buildGateRig(t, 1, 0) // all traffic up front, then silence
	net := g.net
	reg := metrics.New(100)
	net.EnableMetrics(reg)
	net.SetWatchdog(1000, 70)
	net.Run(400) // drain
	if !net.rings[0].idle() || net.InFlight() != 0 {
		t.Fatalf("rig did not drain: %d in flight", net.InFlight())
	}
	for _, run := range []int{1, 7, 64, 333, 1000} {
		before, skipped := net.ticks, net.SkippedCycles
		net.Run(run)
		if net.ticks != before+uint64(run) {
			t.Fatalf("Run(%d) advanced %d cycles", run, net.ticks-before)
		}
		if run > 1 && net.SkippedCycles == skipped {
			t.Fatalf("Run(%d) over a silent network jumped nothing", run)
		}
		if net.now != sim.Cycle(net.ticks-1) {
			t.Fatalf("after Run(%d): now=%d, ticks=%d", run, net.now, net.ticks)
		}
		for _, r := range net.rings {
			if r.now != net.now {
				t.Fatalf("ring %d clock %d lags the network's %d after a jump", r.id, r.now, net.now)
			}
		}
	}
	// One sample per 100 cycles, on the cycle, none skipped, none doubled.
	for _, sr := range reg.Snapshot("gate", net.ticks).Series {
		if want := int(net.ticks / 100); len(sr.Cycles) != want {
			t.Fatalf("%s: %d samples over %d cycles, want %d", sr.Name, len(sr.Cycles), net.ticks, want)
		}
		for i, c := range sr.Cycles {
			if c != uint64(i+1)*100 {
				t.Fatalf("%s: sample %d taken at cycle %d", sr.Name, i, c)
			}
		}
	}
}

// TestThrottleRulesOutJumps: the congestion controller samples its
// window every cycle, so with one installed the clock never jumps —
// rings and devices are still gated.
func TestThrottleRulesOutJumps(t *testing.T) {
	g := buildGateRig(t, 1, 0)
	g.net.SetThrottle(DefaultThrottleConfig())
	g.net.Run(1200)
	if g.net.SkippedCycles != 0 {
		t.Fatalf("jumped %d cycles under a throttle controller", g.net.SkippedCycles)
	}
	if g.net.RingTicksSkipped == 0 || g.net.DeviceTicksSkipped == 0 {
		t.Fatal("throttle turned ring/device gating off")
	}
}

// TestRingSyncEqualsMissedAdvances: catching a skipped ring up in one
// head update lands every slot — here tagged ones, the only thing an
// idle ring can carry — exactly where single advances would have.
func TestRingSyncEqualsMissedAdvances(t *testing.T) {
	for _, positions := range []int{2, 5, 8} {
		for missed := uint64(0); missed < 3*uint64(positions)+2; missed++ {
			mk := func() *Ring {
				net := NewNetwork("t")
				r := net.AddRing(positions, true)
				r.cw.at(1).itagOwner = 7
				r.ccw.at(0).itagOwner = 3
				return r
			}
			stepped, synced := mk(), mk()
			for i := uint64(0); i < missed; i++ {
				stepped.advance()
			}
			synced.sync(missed)
			for p := 0; p < positions; p++ {
				if stepped.cw.at(p).itagOwner != synced.cw.at(p).itagOwner ||
					stepped.ccw.at(p).itagOwner != synced.ccw.at(p).itagOwner {
					t.Fatalf("positions=%d missed=%d: slot %d differs", positions, missed, p)
				}
			}
			if synced.turned != missed || stepped.turned != missed {
				t.Fatalf("turn counters %d/%d, want %d", synced.turned, stepped.turned, missed)
			}
		}
	}
}

// TestParkedHeadCountsDefeatsLazily shows the station-level gate on its
// smallest case: a ring whose every slot carries a flit that only passes,
// and one interface with a head. The head loses once, arms its I-tag, and
// from then on its station is parked — not visited, since no slot in
// front of it is ever free — while the defeats it would have counted are
// credited when someone looks. The forced-awake twin counts them one by
// one and must agree at every look.
func TestParkedHeadCountsDefeatsLazily(t *testing.T) {
	build := func(force bool) (*Network, *NodeInterface) {
		net := NewNetwork("t")
		net.forceAwake = force
		r := net.AddRing(12, true)
		a := net.NewNode("a")
		ni := net.Attach(a, r.AddStation(3))
		b := net.NewNode("b")
		net.Attach(b, r.AddStation(8))
		net.MustFinalize()
		for p := 0; p < r.positions; p++ {
			placeFlit(r, &r.cw, p, &Flit{ID: uint64(100 + p), localDst: 11, counted: true})
			placeFlit(r, &r.ccw, p, &Flit{ID: uint64(200 + p), localDst: 11, counted: true})
		}
		net.InjectedFlits = uint64(2 * r.positions) // what placeFlit put on the ring
		if !ni.Send(net.NewFlit(a, b, KindData, LineBytes)) {
			t.Fatal("inject queue refused the head")
		}
		return net, ni
	}
	gated, head := build(false)
	ref, refHead := build(true)
	for _, k := range []int{1, 1, 5, 40, 1, 300} {
		runCycles(gated, k)
		runCycles(ref, k)
		if got, want := head.Starved(), refHead.Starved(); got != want || want != ref.ticks {
			t.Fatalf("after %d cycles: starved %d, forced-awake %d", ref.ticks, got, want)
		}
		if head.injectFails != refHead.injectFails {
			t.Fatalf("after %d cycles: %d consecutive defeats, forced-awake %d", ref.ticks, head.injectFails, refHead.injectFails)
		}
		if err := gated.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	if !head.itagArmed || !parkedOnly(head.station) {
		t.Fatal("the blocked head did not arm its I-tag and park its station")
	}
	// Two stations, 348 cycles: the head's station is seen on the cycle it
	// loses for the first time and arms, the other one never.
	if want := 2*gated.ticks - 1; gated.StationTicksSkipped != want {
		t.Fatalf("%d station ticks skipped, want %d", gated.StationTicksSkipped, want)
	}
	if ref.StationTicksSkipped != 0 {
		t.Fatalf("forced-awake reference skipped %d station ticks", ref.StationTicksSkipped)
	}
}

// TestFreeMaskTurnsWithTheSlots rotates loops of one, two, three and four
// mask words, partly occupied, through more than a lap each way and
// recounts the free mask (and the calendar) against the slots after every
// advance: the word-boundary carries and the wrap at position n-1.
func TestFreeMaskTurnsWithTheSlots(t *testing.T) {
	for _, n := range []int{2, 3, 63, 64, 65, 127, 128, 129, 130, 200} {
		net := NewNetwork("t")
		r := net.AddRing(n, true)
		r.AddStation(n - 1)
		rng := sim.NewRNG(uint64(n))
		for p := 0; p < n; p++ {
			if rng.Intn(3) == 0 {
				placeFlit(r, &r.cw, p, &Flit{localDst: int32(n - 1)})
			}
			if rng.Intn(3) == 0 {
				placeFlit(r, &r.ccw, p, &Flit{localDst: int32(rng.Intn(n))})
			}
		}
		for turn := 0; turn < n+70; turn++ {
			if err := r.checkVisitSet(); err != nil {
				t.Fatalf("%d positions, %d advances: %v", n, turn, err)
			}
			r.advance()
		}
	}
}

// TestSendFromDeliveryCallback: a head that appears while the rings are
// being ticked. Nothing in the tree sends from the delivery hook
// (RecordLatency), but the network allows it, and the every-station scan
// would see such a head the same cycle if its station is still ahead and
// the next cycle if it has been passed — on the same ring or another.
// Here floods towards one sink per ring keep its clockwise loop busy — a
// flooder downstream loses to the flits of those upstream for cycles on
// end — and the flits that sink takes make the two bystanders of one ring
// or another send the other way round, where the loop is empty: one at a
// station the sweep has passed, one at a station still ahead. Each
// bystander shares its station with a flooder whose head is blocked and
// armed, so the station it wakes is parked and is owed defeats up to a
// cycle that depends on which side of the sweep it lies
// (Network.sweptThrough). The gated engine must match the forced-awake
// one in every counter and in the checkpoint bytes, with I-tags on and
// off.
func TestSendFromDeliveryCallback(t *testing.T) {
	type outcome struct{ counters, ckpt string }
	run := func(force, itags bool) (outcome, [2]int) {
		net := NewNetwork("cb")
		net.forceAwake = force
		net.ITagEnabled = itags
		type bystander struct {
			ni *NodeInterface
			to NodeID
		}
		var slow []*sink
		var echoes []bystander
		for ring := 0; ring < 3; ring++ {
			r := net.AddRing(16, true)
			if ring > 0 {
				// Finalize wants every node reachable; nothing crosses.
				NewRBRGL2(net, fmt.Sprintf("br%d", ring), DefaultRBRGL2Config(), net.rings[ring-1].AddStation(15), r.AddStation(14))
			}
			name := func(what string, pos int) string { return fmt.Sprintf("%s%d@%d", what, ring, pos) }
			st := map[int]*CrossStation{}
			for _, pos := range []int{1, 2, 3, 5, 6, 8, 11, 13} {
				st[pos] = r.AddStation(pos)
			}
			snk := newSink(t, net, st[8], name("slow", 8), 1)
			slow = append(slow, snk)
			fast := newSink(t, net, st[2], name("fast", 2), 2)
			flood := func(pos int, to *sink) {
				fl := newSource(t, net, st[pos], name("flood", pos))
				for k := 0; k < 60; k++ {
					fl.queue(net.NewFlit(fl.Node(), to.Node(), KindData, LineBytes))
				}
			}
			// All clockwise: four floods into the slow sink and one across
			// them from position 13.
			for _, pos := range []int{1, 3, 5, 6} {
				flood(pos, snk)
			}
			flood(13, fast)
			// The bystanders at 3 and 13 send two positions counter-clockwise.
			for _, pos := range []int{3, 13} {
				to := newSink(t, net, st[pos-2], name("echoed", pos-2), 2)
				echoes = append(echoes, bystander{net.Attach(net.NewNode(name("echo", pos)), st[pos]), to.Node()})
			}
		}
		net.MustFinalize()
		isSlow := map[NodeID]bool{}
		for _, s := range slow {
			isSlow[s.Node()] = true
		}
		// wokeParked counts the sends that put a head on an empty lane of a
		// parked station, by side of the sweep: [0] already passed this
		// cycle, [1] still ahead.
		var wokeParked [2]int
		taken := 0
		net.RecordLatency(func(f *Flit, _ uint64) {
			if !isSlow[f.Dst] {
				return
			}
			at := net.nodes[f.Dst].ifaces[0].station
			// Every other flit the slow sinks take, on one ring in turn: a
			// bystander is asked less often than it can inject, so its lane
			// is empty most times.
			taken++
			if taken%2 != 0 {
				return
			}
			for _, e := range echoes {
				if int(e.ni.station.ring.id) != taken/2%3 {
					continue
				}
				if st := e.ni.station; parkedOnly(st) && e.ni.inject.Len() == 0 {
					if st.ring.id > at.ring.id || st.ring.id == at.ring.id && st.pos > at.pos {
						wokeParked[1]++
					} else {
						wokeParked[0]++
					}
				}
				if echo := net.NewFlit(e.ni.node, e.to, KindAck, 0); !e.ni.Send(echo) {
					net.RecycleRefused(echo)
				}
			}
		})
		net.Run(500)
		if err := net.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.counters = fmt.Sprintf("inj=%d del=%d defl=%d hops=%d", net.InjectedFlits, net.DeliveredFlits, net.Deflections, net.TotalHops)
		for _, s := range net.InterfaceReport() {
			o.counters += fmt.Sprintf(" %s:%d/%d/%d/%d", s.Name, s.Injected, s.EjectedFlits, s.Deflected, s.Starved)
		}
		var b bytes.Buffer
		if err := WriteCheckpoint(&b, net, nil); err != nil {
			t.Fatal(err)
		}
		o.ckpt = b.String()
		return o, wokeParked
	}
	for _, itags := range []bool{true, false} {
		want, _ := run(true, itags)
		got, woke := run(false, itags)
		if got.counters != want.counters {
			t.Errorf("I-tags %v: counters diverged\n got: %s\nwant: %s", itags, got.counters, want.counters)
		}
		if got.ckpt != want.ckpt {
			t.Errorf("I-tags %v: checkpoint bytes diverged", itags)
		}
		if woke[0] < 20 || woke[1] < 20 {
			t.Errorf("I-tags %v: callbacks woke %d parked stations behind the sweep and %d ahead of it; the test needs plenty of both", itags, woke[0], woke[1])
		}
	}
}
