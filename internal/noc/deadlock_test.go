package noc

import (
	"fmt"
	"strings"
	"testing"

	"chipletnoc/internal/sim"
)

// crossFlood is a generator that floods the network with cross-die
// traffic: every node on die A sends to a partner on die B and vice
// versa, while also *consuming* its own arrivals — the exact pattern of
// Figure 9 where every flit on each ring wants the other ring.
type crossFlood struct {
	Port
	partner NodeID
	remain  int
	got     int
}

func (c *crossFlood) Tick(now sim.Cycle) {
	for c.remain > 0 {
		f := c.Net.NewFlit(c.Node(), c.partner, KindData, LineBytes)
		if !c.Iface.Send(f) {
			break
		}
		c.remain--
	}
	for {
		if f := c.Iface.Recv(); f == nil {
			break
		}
		c.got++
	}
}

// buildDeadlockRig creates two small dies joined by one RBRG-L2 where all
// endpoint traffic crosses the bridge in both directions. Small rings and
// queues make the resource cycle fill quickly.
func buildDeadlockRig(t *testing.T, swap bool, flitsPerNode int) (*Network, []*crossFlood, *RBRGL2) {
	t.Helper()
	net := NewNetwork("t")
	cfg := RBRGL2Config{
		InjectDepth: 4, EjectDepth: 4,
		TxDepth: 4, RxDepth: 4,
		ReserveDepth:      4,
		LinkLatency:       4,
		LinkWidth:         1,
		DeadlockThreshold: 32,
		EnableSwap:        swap,
	}
	r0 := net.AddRing(6, false) // half rings: no alternate direction to leak pressure
	r1 := net.AddRing(6, false)
	mk := func(r *Ring, pos int, name string) *crossFlood {
		g := &crossFlood{remain: flitsPerNode}
		g.Port = net.PlugQueued(g, name, r.AddStation(pos), 4, 4)
		return g
	}
	a0 := mk(r0, 0, "a0")
	a1 := mk(r0, 2, "a1")
	b0 := mk(r1, 2, "b0")
	b1 := mk(r1, 4, "b1")
	a0.partner, a1.partner = b0.Node(), b1.Node()
	b0.partner, b1.partner = a0.Node(), a1.Node()
	br := NewRBRGL2(net, "l2", cfg, r0.AddStation(4), r1.AddStation(0))
	net.MustFinalize()
	return net, []*crossFlood{a0, a1, b0, b1}, br
}

func TestCrossRingDeadlockWithoutSwapStalls(t *testing.T) {
	net, _, _ := buildDeadlockRig(t, false, 100000)
	runCycles(net, 20000)
	before := net.DeliveredFlits
	runCycles(net, 20000)
	after := net.DeliveredFlits
	if after != before {
		// If the rig never deadlocks the experiment is meaningless;
		// both outcomes are checked so a regression in either direction
		// fails loudly.
		t.Fatalf("no deadlock formed: deliveries advanced %d -> %d", before, after)
	}
}

func TestSwapBreaksCrossRingDeadlock(t *testing.T) {
	net, gens, br := buildDeadlockRig(t, true, 100000)
	prev := uint64(0)
	for epoch := 0; epoch < 40; epoch++ {
		runCycles(net, 5000)
		if net.DeliveredFlits == prev {
			t.Fatalf("epoch %d: SWAP failed to keep the network moving (delivered=%d, DRM entries=%d)",
				epoch, net.DeliveredFlits, br.SwapEntries())
		}
		prev = net.DeliveredFlits
	}
	if br.SwapEntries() == 0 {
		t.Fatal("deadlock resolution never triggered; rig no longer exercises SWAP")
	}
	total := 0
	for _, g := range gens {
		total += g.got
	}
	if total == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestSwapDrainsCompletely(t *testing.T) {
	// Finite flood: with SWAP on, every single flit must eventually
	// arrive even through deadlock episodes.
	net, gens, _ := buildDeadlockRig(t, true, 500)
	runCycles(net, 200000)
	total := 0
	for _, g := range gens {
		total += g.got
	}
	if want := 4 * 500; total != want {
		t.Fatalf("delivered %d/%d, in flight %d", total, want, net.InFlight())
	}
	if net.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", net.InFlight())
	}
}

func TestDRMEntryAndExit(t *testing.T) {
	net, _, br := buildDeadlockRig(t, true, 2000)
	runCycles(net, 100000)
	if br.SwapEntries() == 0 {
		t.Skip("rig did not deadlock in this configuration")
	}
	// After the finite flood drains, both sides must have left DRM.
	runCycles(net, 100000)
	if br.InDRM() {
		t.Fatal("bridge stuck in deadlock-resolution mode after drain")
	}
}

// TestKillOnlyBridgeWatchdogDrains kills the rig's single bridge mid-run.
// Every cross-ring flit already in flight is stranded with no possible
// route, so the only acceptable outcome is graceful degradation: the
// watchdog reaps the stranded flits, conservation holds at every sampled
// cycle, and the run terminates instead of wedging.
func TestKillOnlyBridgeWatchdogDrains(t *testing.T) {
	net, gens, _ := buildDeadlockRig(t, true, 500)
	net.SetWatchdog(2000, 0)
	// Kill while the flood is mid-flight so flits are stranded on rings
	// and in queues, not just refused at injection.
	runCycles(net, 300)
	bridge, ok := net.NodeByName("l2")
	if !ok {
		t.Fatal("bridge node missing")
	}
	if err := net.FailBridge(bridge); err != nil {
		t.Fatalf("FailBridge: %v", err)
	}
	quiesced := false
	for c := 0; c < 200000; c++ {
		runCycles(net, 1)
		if c%512 == 0 {
			if err := net.CheckConservation(); err != nil {
				t.Fatalf("cycle %d after kill: %v", c, err)
			}
		}
		remain := 0
		for _, g := range gens {
			remain += g.remain
		}
		if remain == 0 && net.InFlight() == 0 {
			quiesced = true
			break
		}
	}
	if !quiesced {
		t.Fatalf("run did not terminate: in flight %d, watchdog drops %d",
			net.InFlight(), net.WatchdogDrops)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if net.WatchdogDrops == 0 {
		t.Fatal("watchdog never reaped a stranded flit")
	}
	if net.InjectedFlits != net.DeliveredFlits+net.DroppedFlits {
		t.Fatalf("conservation violated after drain: injected %d != delivered %d + dropped %d",
			net.InjectedFlits, net.DeliveredFlits, net.DroppedFlits)
	}
	got := 0
	for _, g := range gens {
		got += g.got
	}
	if uint64(got) != net.DeliveredFlits {
		t.Fatalf("endpoints received %d flits but network counted %d delivered",
			got, net.DeliveredFlits)
	}
}

// buildBridgePairRig joins two full 8-position rings with two parallel
// RBRG-L2 bridges, br0 at position 3 and br1 at 6, each of whose queues
// holds depth flits. A source sits on ring 0 at each of srcPos, and dst on
// ring 1 at position 0. Killing either bridge must leave the other
// carrying all cross-ring traffic.
func buildBridgePairRig(t *testing.T, depth int, srcPos ...int) (net *Network, srcs []*source, dst *source) {
	t.Helper()
	net = NewNetwork("t")
	cfg := RBRGL2Config{InjectDepth: depth, EjectDepth: depth, TxDepth: depth, RxDepth: depth, ReserveDepth: depth,
		LinkLatency: 4, LinkWidth: 1, DeadlockThreshold: 64, EnableSwap: true}
	r0, r1 := net.AddRing(8, true), net.AddRing(8, true)
	dst = newSource(t, net, r1.AddStation(0), "dst")
	for _, pos := range srcPos {
		srcs = append(srcs, newSource(t, net, r0.AddStation(pos), fmt.Sprint("src", pos)))
	}
	NewRBRGL2(net, "br0", cfg, r0.AddStation(3), r1.AddStation(3))
	NewRBRGL2(net, "br1", cfg, r0.AddStation(6), r1.AddStation(6))
	net.MustFinalize()
	return net, srcs, dst
}

// TestParallelBridgeFailoverLossless kills one of two parallel bridges
// between bursts: the survivor must carry everything and not a single
// flit may be lost — degraded, not lossy. The kill lands on an idle
// bridge: everything has drained, so it holds no flit and no E-tag state.
// TestRerouteDropsTagStateAtOldExit kills a loaded one.
func TestParallelBridgeFailoverLossless(t *testing.T) {
	net, srcs, b := buildBridgePairRig(t, 8, 0)
	a := srcs[0]
	burst := func(n int) {
		for i := 0; i < n; i++ {
			a.queue(net.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
			b.queue(net.NewFlit(b.Node(), a.Node(), KindData, LineBytes))
		}
	}
	drain := func(limit int) bool {
		for i := 0; i < limit; i++ {
			runCycles(net, 1)
			if len(a.pending) == 0 && len(b.pending) == 0 && net.InFlight() == 0 {
				return true
			}
		}
		return false
	}

	burst(200)
	if !drain(60000) {
		t.Fatalf("healthy phase did not drain: in flight %d", net.InFlight())
	}
	if len(a.got) != 200 || len(b.got) != 200 {
		t.Fatalf("healthy phase delivered %d/%d of 200/200", len(a.got), len(b.got))
	}

	bridge, ok := net.NodeByName("br0")
	if !ok {
		t.Fatal("bridge node missing")
	}
	if err := net.FailBridge(bridge); err != nil {
		t.Fatalf("FailBridge: %v", err)
	}
	if failed := net.FailedBridges(); len(failed) != 1 {
		t.Fatalf("expected 1 failed bridge, got %v", failed)
	}

	burst(200)
	if !drain(120000) {
		t.Fatalf("degraded phase did not drain: in flight %d, dropped %d",
			net.InFlight(), net.DroppedFlits)
	}
	if net.DroppedFlits != 0 {
		t.Fatalf("failover lost %d flits (watchdog %d, fault %d, unroutable %d)",
			net.DroppedFlits, net.WatchdogDrops, net.FaultDrops, net.UnroutableDrops)
	}
	if len(a.got) != 400 || len(b.got) != 400 {
		t.Fatalf("degraded phase delivered %d/%d of 400/400", len(a.got), len(b.got))
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("after failover drain: %v", err)
	}
}

// TestRerouteDropsTagStateAtOldExit kills one of two parallel bridges
// while a flit on a ring is registered for, or holds, one of its eject
// entries. The reroute sends that flit to the survivor, so no interface
// may keep an E-tag registration or reservation for a flit that now
// exits elsewhere: it would hold an eject entry for a flit that never
// arrives there.
func TestRerouteDropsTagStateAtOldExit(t *testing.T) {
	// Six sources on one ring flood a node on the other through two
	// narrow bridges, whose eject entries fill and register waiters.
	net, srcs, sink := buildBridgePairRig(t, 2, 0, 1, 2, 4, 5, 7)
	for i := 0; i < 100; i++ {
		for _, s := range srcs {
			s.queue(net.NewFlit(s.Node(), sink.Node(), KindData, LineBytes))
		}
	}
	// exits maps every flit on ring r, in a slot or a queue, to the
	// (position, interface) it leaves the ring at.
	exits := func(r *Ring) map[uint64][2]int {
		out := map[uint64][2]int{}
		loops := []*loop{&r.cw}
		if r.full {
			loops = append(loops, &r.ccw)
		}
		for _, l := range loops {
			for p := 0; p < r.positions; p++ {
				if f := l.at(p).flit; f != nil {
					out[f.ID] = [2]int{int(f.localDst), int(f.localIface)}
				}
			}
		}
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				for _, q := range []*sim.FIFO[*Flit]{&ni.inject, &ni.bypass} {
					for i := 0; i < q.Len(); i++ {
						out[q.At(i).ID] = [2]int{int(q.At(i).localDst), int(q.At(i).localIface)}
					}
				}
			}
		}
		return out
	}
	// stale lists the tag entries naming a flit on the ring that exits
	// somewhere else; tagged says whether the bridge holds any entry for a
	// flit on the ring.
	bridge, _ := net.NodeByName("br0")
	check := func() (stale []string, tagged bool) {
		for _, r := range net.rings {
			live := exits(r)
			for _, st := range r.stations {
				for _, ni := range st.ifaces {
					if ni == nil {
						continue
					}
					ids := append([]uint64(nil), ni.reserved...)
					for i := 0; i < ni.wantEject.Len(); i++ {
						ids = append(ids, ni.wantEject.At(i))
					}
					for _, id := range ids {
						exit, on := live[id]
						tagged = tagged || (on && ni.node == bridge)
						if on && exit != [2]int{st.pos, ni.index} {
							stale = append(stale, fmt.Sprintf("ring %d position %d interface %d keeps flit %d, which exits at %v", r.id, st.pos, ni.index, id, exit))
						}
					}
				}
			}
		}
		return stale, tagged
	}
	for cyc := 0; ; cyc++ {
		if _, tagged := check(); tagged {
			break
		}
		if cyc == 20000 {
			t.Fatal("no flit on a ring was ever registered at br0: the test exercises nothing")
		}
		runCycles(net, 1)
	}
	if err := net.FailBridge(bridge); err != nil {
		t.Fatal(err)
	}
	if net.ReroutedFlits == 0 {
		t.Fatal("the failure rerouted nothing")
	}
	if stale, _ := check(); len(stale) > 0 {
		t.Errorf("%d tag entries outlive their flit's reroute:\n%s", len(stale), strings.Join(stale, "\n"))
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
