package traffic

import (
	"fmt"
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// walked renders everything a Tick of a generator can touch: its state
// walk — for the requester its RNG and address-stream positions bit for
// bit — plus what it can do to the fabric through its interface.
func walked(t *testing.T, d noc.StateSnapshotter, ni *noc.NodeInterface) string {
	t.Helper()
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	defer s.End()
	d.SnapState(s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return string(e.Data()) + fmt.Sprintf("|inj=%d ej=%d sent=%d got=%d", ni.InjectLen(), ni.EjectLen(), ni.Injected, ni.EjectedFlits)
}

// TestIdleUntilHonest is the invariant the tick engine's device gate
// rests on (the internal/mem test of the same name is the template), for
// the requester and the replayer against a slow memory: whenever
// IdleUntil(next) > next, an extra Tick(next) must leave the encoded
// state — RNG included — byte-identical and move no flit. The requester
// cases cover both ways the issue loop can return before its first draw
// (a closed loop on a full table, a spent request budget), the split
// write pool (a full read budget alone still draws the class coin), retry
// deadlines as the timed sleep, an open-loop rate, which draws before
// it looks at the table and so must never sleep on a full one, and — the
// deep cases, whose transaction table is larger than the inject queue and
// whose write bursts saturate the ring behind the slow memory — a beat
// backlog behind a full inject queue, closed- and open-loop, with and
// without a retry deadline to sleep towards.
func TestIdleUntilHonest(t *testing.T) {
	cases := []struct {
		name   string
		cfg    RequesterConfig
		timed  bool // retry deadlines give it something to sleep towards
		blocks bool // must be seen asleep on a backlog behind a full inject queue
	}{
		{name: "closed-loop", cfg: RequesterConfig{Outstanding: 4, Rate: 1, ReadFraction: 0.7}},
		{name: "open-loop-bounded", cfg: RequesterConfig{Outstanding: 2, Rate: 0.3, ReadFraction: 0.7, MaxRequests: 40}},
		{name: "write-pool", cfg: RequesterConfig{Outstanding: 3, WriteOutstanding: 2, Rate: 1, ReadFraction: 0.5}},
		{name: "retry", timed: true, cfg: RequesterConfig{Outstanding: 4, Rate: 1, ReadFraction: 0.7,
			Retry: chi.RetryConfig{TimeoutCycles: 60, MaxRetries: 3}}},
		{name: "closed-loop-bounded", cfg: RequesterConfig{Outstanding: 4, Rate: 1, ReadFraction: 0.7, MaxRequests: 60, IssuePerCycle: 2}},
		{name: "deep", blocks: true, cfg: RequesterConfig{Outstanding: 24, Rate: 1, ReadFraction: 0.3, IssuePerCycle: 2}},
		{name: "deep-open-loop", blocks: true, cfg: RequesterConfig{Outstanding: 24, Rate: 0.8, ReadFraction: 0.3, IssuePerCycle: 2}},
		{name: "deep-retry", blocks: true, timed: true, cfg: RequesterConfig{Outstanding: 24, Rate: 1, ReadFraction: 0.3, IssuePerCycle: 2,
			Retry: chi.RetryConfig{TimeoutCycles: 900, MaxRetries: 3}}},
	}
	t.Run("replayer", replayerIdleHonest)
	for _, tc := range cases {
		t.Run("requester/"+tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				net := noc.NewNetwork("idle")
				ring := net.AddRing(12, true)
				ctl := mem.New(net, "mem", mem.Config{AccessCycles: 40, BytesPerCycle: 8, QueueDepth: 4}, ring.AddStation(6))
				cfg := tc.cfg
				cfg.LineBytes = 256 // multi-beat: writes queue data bursts behind the grant
				cfg.Stream = NewSeqStream(0, 256, 1<<20)
				cfg.TargetOf = FixedTarget(ctl.Node())
				req := NewRequester(net, "gen", cfg, sim.NewRNG(seed), ring.AddStation(0))
				net.MustFinalize()

				idle, busy, slept, full, blocked, blockedTimed := 0, 0, 0, 0, 0, 0
				for c := 0; c < 6000; c++ {
					now := sim.Cycle(net.Ticks())
					net.Tick(now)
					next := now + 1
					until := req.IdleUntil(next)
					spent := cfg.MaxRequests != 0 && req.Issued >= cfg.MaxRequests
					if req.tracker.Full() && !spent {
						full++
						if cfg.Rate < 1 && until > next && req.sendq.Len() == 0 {
							t.Fatalf("seed %d: open-loop requester asleep on a full table at cycle %d with no backlog; its Tick draws", seed, next)
						}
					}
					if until <= next {
						busy++
						continue
					}
					idle++
					if until != noc.Never {
						slept++
					}
					if req.sendq.Len() > 0 {
						if req.Iface.InjectSpace() != 0 {
							t.Fatalf("seed %d: requester asleep at cycle %d with a backlog and %d free inject entries", seed, next, req.Iface.InjectSpace())
						}
						blocked++
						if until != noc.Never {
							blockedTimed++
						}
					}
					before := walked(t, req, req.Iface)
					req.Tick(next)
					if after := walked(t, req, req.Iface); after != before {
						t.Fatalf("seed %d: requester said idle until %d at cycle %d but its Tick changed state", seed, until, next)
					}
				}
				if idle == 0 || busy == 0 || full == 0 || (tc.timed && slept == 0) {
					t.Fatalf("seed %d: property not exercised (%d idle, %d busy, %d timed sleeps, %d cycles on a full table)", seed, idle, busy, slept, full)
				}
				if tc.blocks && (blocked == 0 || tc.timed && blockedTimed == 0) {
					t.Fatalf("seed %d: never asleep on a backlog behind a full inject queue (%d such cycles, %d with a retry deadline); the blocked-sender clause was not exercised", seed, blocked, blockedTimed)
				}
				if retried, _ := req.RetryStats(); tc.timed && retried == 0 {
					t.Fatalf("seed %d: no retry deadline ever fired", seed)
				}
				if cfg.MaxRequests != 0 && !req.Done() {
					t.Fatalf("seed %d: %d of %d requests completed", seed, req.Completed, cfg.MaxRequests)
				}
				if net.DeviceTicksSkipped == 0 {
					t.Fatalf("seed %d: the engine never skipped a device", seed)
				}
			}
		})
	}
}

// replayerIdleHonest holds the replayer to the contract on a trace of
// dense bursts (the table fills and the replay slips: awake, counting
// SlipCycles) separated by gaps long enough to drain (asleep until the
// next recorded cycle, then forever once the trace is done).
func replayerIdleHonest(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		var ops []TraceOp
		at := uint64(0)
		for len(ops) < 120 {
			for n := 1 + rng.Intn(12); n > 0; n-- {
				ops = append(ops, TraceOp{Cycle: at, Write: rng.Bernoulli(0.4), Addr: uint64(len(ops)) * 256, Size: 256})
				at += uint64(rng.Intn(3))
			}
			at += uint64(100 + rng.Intn(600))
		}
		net := noc.NewNetwork("idle")
		ring := net.AddRing(12, true)
		ctl := mem.New(net, "mem", mem.Config{AccessCycles: 40, BytesPerCycle: 8, QueueDepth: 4}, ring.AddStation(6))
		rep := NewReplayer(net, "replay", ops, 4, FixedTarget(ctl.Node()), ring.AddStation(0))
		net.MustFinalize()

		idle, busy, slept, forever := 0, 0, 0, 0
		for c := 0; c < int(at)+4000; c++ {
			now := sim.Cycle(net.Ticks())
			net.Tick(now)
			next := now + 1
			until := rep.IdleUntil(next)
			if until <= next {
				busy++
				continue
			}
			idle++
			if until != noc.Never {
				slept++
			} else {
				forever++
			}
			before := walked(t, rep, rep.Iface)
			rep.Tick(next)
			if after := walked(t, rep, rep.Iface); after != before {
				t.Fatalf("seed %d: replayer said idle until %d at cycle %d but its Tick changed state", seed, until, next)
			}
		}
		if !rep.Done() {
			t.Fatalf("seed %d: %d of %d operations completed", seed, rep.Completed, len(ops))
		}
		if rep.SlipCycles == 0 {
			t.Fatalf("seed %d: the replay never slipped on a full table", seed)
		}
		if idle == 0 || busy == 0 || slept == 0 || forever == 0 {
			t.Fatalf("seed %d: property not exercised (%d idle, %d busy, %d timed sleeps, %d open-ended)", seed, idle, busy, slept, forever)
		}
		if net.DeviceTicksSkipped == 0 {
			t.Fatalf("seed %d: the engine never skipped a device", seed)
		}
	}
}
