package noc_test

import (
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

// requesterTicks returns how many Tick calls the network's requesters got.
func requesterTicks(t *testing.T, n *noc.Network) uint64 {
	t.Helper()
	for _, k := range n.DeviceTicksByKind() {
		if k.Kind == "traffic.Requester" {
			return k.Ticks
		}
	}
	t.Fatal("no traffic.Requester in the device tick table")
	return 0
}

// TestBlockedSenderWakesOnInjectPop is the fourth wake source on its
// smallest case: one requester whose transaction table is deeper than its
// inject queue, writing multi-beat lines into a memory slow enough that
// the beats fill the ring behind it. The requester spends cycles with a
// backlog behind a full inject queue — asleep, under the gated engine —
// and on the cycle the station takes the head its next Send must land, as
// it does for the forced-awake reference that ticks it every cycle: the
// two are compared after every cycle, and the awake set is recounted.
func TestBlockedSenderWakesOnInjectPop(t *testing.T) {
	t.Run("pop from a non-full lane wakes nobody", nonFullLaneWakesNobody)
	build := func(force bool) (*noc.Network, *traffic.Requester) {
		net := noc.NewNetwork("blocked")
		if force {
			net.ForceAwake()
		}
		ring := net.AddRing(8, false)
		ctl := mem.New(net, "mem", mem.Config{AccessCycles: 40, BytesPerCycle: 8, QueueDepth: 4}, ring.AddStation(4))
		req := traffic.NewRequester(net, "gen", traffic.RequesterConfig{
			Outstanding: 48, Rate: 1, ReadFraction: 0.3, IssuePerCycle: 4, LineBytes: 256,
			Stream: traffic.NewSeqStream(0, 256, 1<<20), TargetOf: traffic.FixedTarget(ctl.Node()),
			Retry: chi.RetryConfig{TimeoutCycles: 900, MaxRetries: 3},
		}, sim.NewRNG(1), ring.AddStation(0))
		net.MustFinalize()
		return net, req
	}
	const cycles = 3000
	gated, g := build(false)
	ref, r := build(true)
	blocked, refills := 0, 0
	for c := 0; c < cycles; c++ {
		full, sent := g.Iface.InjectSpace() == 0, g.Iface.Injected
		gated.Run(1)
		ref.Run(1)
		gi, ri := g.Iface, r.Iface
		if gi.Injected != ri.Injected || gi.InjectLen() != ri.InjectLen() || g.Issued != r.Issued || g.Completed != r.Completed {
			t.Fatalf("cycle %d: gated requester has put %d flits on the ring, queues %d, issued %d, completed %d; forced-awake %d, %d, %d, %d",
				c, gi.Injected, gi.InjectLen(), g.Issued, g.Completed, ri.Injected, ri.InjectLen(), r.Issued, r.Completed)
		}
		if err := gated.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		switch {
		case full && gi.Injected == sent:
			blocked++ // nothing left the full queue: a refused Send is all a tick could do
		case full && gi.InjectSpace() == 0:
			refills++ // the station took the head and the next beat took its place, in one cycle
		}
	}
	if blocked < 20 || refills < 20 {
		t.Fatalf("%d cycles blocked on a full inject queue, %d same-cycle refills; the test needs plenty of both", blocked, refills)
	}
	if ticks := requesterTicks(t, gated); ticks+uint64(blocked)/2 > cycles {
		t.Errorf("the gated requester ticked %d of %d cycles, %d of them blocked on a full inject queue; it should sleep through those", ticks, cycles, blocked)
	}
	if retried, _ := g.RetryStats(); retried == 0 {
		t.Error("no retry deadline fired; blocked-with-deadline was not on the path")
	}
}

// nonFullLaneWakesNobody: a requester that has spent its budget sleeps
// while the station drains what it queued. Its inject queue was never
// full, so no Send was ever refused and the pops must not wake it: it
// ticks once to issue, and then only when the replies arrive.
func nonFullLaneWakesNobody(t *testing.T) {
	net := noc.NewNetwork("drain")
	ring := net.AddRing(12, true)
	ctl := mem.New(net, "mem", mem.Config{AccessCycles: 200, BytesPerCycle: 64, QueueDepth: 8}, ring.AddStation(6))
	req := traffic.NewRequester(net, "gen", traffic.RequesterConfig{
		Outstanding: 8, Rate: 1, ReadFraction: 1, IssuePerCycle: 5, MaxRequests: 5, LineBytes: 64,
		Stream: traffic.NewSeqStream(0, 64, 1<<20), TargetOf: traffic.FixedTarget(ctl.Node()),
	}, sim.NewRNG(1), ring.AddStation(0))
	net.MustFinalize()
	net.Run(1)
	if req.Issued != 5 || req.Iface.InjectLen() == 0 || req.Iface.InjectSpace() == 0 {
		t.Fatalf("after one cycle: %d issued, %d queued, %d free; the test needs a partly filled inject queue", req.Issued, req.Iface.InjectLen(), req.Iface.InjectSpace())
	}
	net.Run(40)
	if req.Iface.Injected != 5 {
		t.Fatalf("%d of 5 requests left the inject queue in 40 cycles", req.Iface.Injected)
	}
	if ticks := requesterTicks(t, net); ticks != 1 {
		t.Errorf("the requester ticked %d times while its non-full inject queue drained, want 1", ticks)
	}
	net.Run(400)
	if !req.Done() {
		t.Fatalf("%d of 5 requests completed", req.Completed)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
