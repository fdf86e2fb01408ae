package mem

import (
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// controllerState renders everything a Tick of the controller can touch,
// settled through the cycle before end: its own snapshot codec (queues,
// in-service pipeline, replies, the token bucket bit for bit with every
// refill before end in, write-burst tables, counters) plus what it can do
// to the fabric through its interface. The controller itself is left as
// it is.
func controllerState(t *testing.T, c *Controller, end sim.Cycle) string {
	t.Helper()
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	defer s.End()
	settled := *c
	settled.tokens, settled.filled = c.refilled(end), end
	settled.SnapState(s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	ni := c.iface
	e.PutU64(uint64(ni.InjectLen()))
	e.PutU64(uint64(ni.EjectLen()))
	e.PutU64(uint64(ni.InjectSpace()))
	e.PutU64(ni.Injected)
	e.PutU64(ni.EjectedFlits)
	return string(e.Data())
}

// TestIdleUntilHonest is the invariant the tick engine's device gate
// rests on, for the memory controller on fuzzed traffic: whenever
// IdleUntil(now) > now, Tick(now) must leave the controller's settled
// state byte-identical and send, receive and release no flit. After
// every cycle of the (gated) run the test asks about the next cycle and,
// when the controller claims to be idle, ticks it anyway — an extra tick
// that, if the claim is true, perturbs nothing. Settled means with the
// claimed cycle's refill in, before the tick and after it: the one thing
// an idle tick may do is the refill a sleeping controller replays later,
// so a tick that refills without moving the refill cursor, or replays a
// cycle twice, fails here. So does a field added to the controller's
// codec later that an "idle" tick moves.
//
// Narrow channels keep the token bucket refilling for many cycles after
// a grant, so the controller sleeps with refills owed; wide ones saturate
// it at once; shallow queues exercise the queue-full path.
func TestIdleUntilHonest(t *testing.T) {
	cfgs := []Config{
		DDR4Channel(),
		{AccessCycles: 5, BytesPerCycle: 2048, QueueDepth: 32},
		{AccessCycles: 40, BytesPerCycle: 3.3, QueueDepth: 2},
	}
	sizes := []int{64, 256, 1024}
	for ci, cfg := range cfgs {
		for seed := uint64(1); seed <= 6; seed++ {
			net := noc.NewNetwork("idle")
			ring := net.AddRing(20, true)
			ctl := New(net, "mem", cfg, ring.AddStation(10))
			var reqs []*requester
			for i := 0; i < 3; i++ {
				reqs = append(reqs, newRequester(t, net, ring.AddStation(i*3), name3(i)))
			}
			net.MustFinalize()

			rng := sim.NewRNG(seed).Derive(uint64(ci))
			at, issued := 0, 0
			idle, busy, slept, owed := 0, 0, 0, 0
			for c := 0; c < 6000; c++ {
				now := sim.Cycle(net.Ticks())
				if c == at && issued < 40 {
					// Bursts of one to four requests, then a gap — sometimes
					// long enough for the bucket to saturate, sometimes not.
					for n := 1 + rng.Intn(4); n > 0; n-- {
						r := reqs[rng.Intn(len(reqs))]
						op := chi.ReadNoSnp
						if rng.Bernoulli(0.4) {
							op = chi.WriteNoSnp
						}
						r.pending = append(r.pending, &chi.Message{Op: op, Addr: uint64(issued) * 4096, Requester: r.Node(), Size: int32(sizes[rng.Intn(len(sizes))])})
						r.dst = ctl.Node()
						issued++
					}
					at = c + 1 + rng.Intn(300)
				}
				net.Tick(now)
				next := now + 1
				w := ctl.IdleUntil(next)
				if w <= next {
					busy++
					continue
				}
				idle++
				if w != noc.Never {
					slept++
				}
				if ctl.tokens < ctl.restingCap() {
					owed++
				}
				before := controllerState(t, ctl, next+1)
				ctl.Tick(next)
				if after := controllerState(t, ctl, next+1); after != before {
					t.Fatalf("cfg %d seed %d: controller said idle until %d at cycle %d but its Tick changed state", ci, seed, w, next)
				}
			}
			done := 0
			for _, r := range reqs {
				done += len(r.done)
			}
			if done != issued {
				t.Fatalf("cfg %d seed %d: %d of %d transactions completed", ci, seed, done, issued)
			}
			if idle == 0 || busy == 0 || slept == 0 || (cfg.BytesPerCycle < 100 && owed == 0) {
				t.Fatalf("cfg %d seed %d: property not exercised (%d idle, %d busy, %d timed sleeps, %d with refills owed)", ci, seed, idle, busy, slept, owed)
			}
			if net.DeviceTicksSkipped == 0 {
				t.Fatalf("cfg %d seed %d: the engine never skipped the controller", ci, seed)
			}
		}
	}
}
