package serving

import (
	"fmt"
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// walked is what an idle Tick must leave alone: the devices' state walks,
// as one walk, and what they can do to the fabric through ni. The
// orchestrator's walk carries the commands its engines hold and its stall
// count settled through the clock, and saving changes nothing.
func walked(t *testing.T, ni *noc.NodeInterface, devs ...noc.StateSnapshotter) string {
	t.Helper()
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	defer s.End()
	for _, d := range devs {
		d.SnapState(s)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if ni != nil {
		e.PutString(fmt.Sprint(ni.InjectLen(), ni.EjectLen(), ni.InjectSpace(), ni.Injected, ni.EjectedFlits))
	}
	return string(e.Data())
}

// TestIdleUntilHonest is the invariant the tick engine's device gate
// rests on, for the serving engines and the orchestrator across the
// load range (far below the knee, at it, far beyond): whenever
// IdleUntil(now) > now, Tick(now) must leave the device's walked state
// byte-identical and send, receive and release no flit. After every cycle of
// the gated run the test asks each device about the next cycle and, when
// it claims to be idle, ticks it anyway — an extra tick that perturbs
// nothing if the claim is true, so the run (checked against an
// undisturbed twin at the end) carries on as if unobserved. The
// orchestrator is compared settled through the claimed cycle: a stall it
// sleeps through is counted later, so an idle tick may count it now, but
// a stall counted twice, or not at all, fails here.
func TestIdleUntilHonest(t *testing.T) {
	for _, run := range []struct {
		load    float64
		process string
		cycles  uint64
	}{{1, "poisson", 3000}, {24, "poisson", 1500}, {24, "bursty", 1500}, {400, "poisson", 500}} {
		load, process := run.load, run.process
		spec := quickSpec(t)
		spec.Arrival = config.ServingArrivalSpec{Process: process}
		spec.ApplyDefaults(true)
		spec.Loads = []float64{load}
		spec.Cycles = run.cycles
		twin := runPoint(t, spec, 0)

		sys, err := Build(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		engIdle, engBusy, orchIdle, orchBusy, orchStalled := 0, 0, 0, 0, 0
		for c := uint64(0); c < spec.Cycles; c++ {
			sys.Net.Run(1)
			next := sim.Cycle(sys.Net.Ticks())
			for _, e := range sys.Engines {
				if e.IdleUntil(next) <= next {
					engBusy++
					continue
				}
				engIdle++
				before := walked(t, e.iface, e, sys.Orch)
				e.Tick(next)
				if after := walked(t, e.iface, e, sys.Orch); after != before {
					t.Fatalf("load %v %s: %s said idle at cycle %d but its Tick changed state", load, process, e.name, next)
				}
			}
			if w := sys.Orch.IdleUntil(next); w <= next {
				orchBusy++
				continue
			}
			orchIdle++
			if sys.Orch.stalled {
				orchStalled++
			}
			before := walked(t, nil, sys.Orch)
			sys.Orch.Tick(next)
			if after := walked(t, nil, sys.Orch); after != before {
				t.Fatalf("load %v %s: orchestrator said idle at cycle %d but its Tick changed state", load, process, next)
			}
		}
		if got := fingerprintOf(sys.Orch); got != twin {
			t.Fatalf("load %v %s: the extra idle ticks perturbed the run: %+v != %+v", load, process, got, twin)
		}
		if engIdle == 0 || engBusy == 0 || orchBusy == 0 || (load < 100 && orchIdle == 0) || (load > 1 && orchStalled == 0) {
			t.Fatalf("load %v %s: property not exercised (engines %d idle/%d busy, orchestrator %d idle/%d busy, %d idle stalled)",
				load, process, engIdle, engBusy, orchIdle, orchBusy, orchStalled)
		}
	}
}

// TestArrivalDrawAheadEqualsStepping: drawing the process ahead to its
// next arrival takes the same draws in the same order as one step per
// cycle, for both processes, below and above one arrival per cycle — so
// a run whose orchestrator is only ticked on the cycles nextAt names
// admits exactly the requests a cycle-by-cycle run does. A process that
// can never produce an arrival answers Never instead of stepping forever.
func TestArrivalDrawAheadEqualsStepping(t *testing.T) {
	const cycles = 100000
	for _, process := range []string{"poisson", "bursty"} {
		for _, load := range []float64{1, 24, 700, 3500} {
			spec := quickSpec(t)
			spec.Arrival = config.ServingArrivalSpec{Process: process}
			spec.ApplyDefaults(true)
			mk := func() *arrivalProcess { return newArrivalProcess(spec, load, sim.NewRNG(99).Derive(7)) }

			stepped, polled, jumped := mk(), mk(), mk()
			want := make([]int, cycles)
			total := 0
			for c := range want {
				want[c] = stepped.step()
				total += want[c]
			}
			if total == 0 {
				t.Fatalf("%s load %v: no arrival in %d cycles", process, load, cycles)
			}
			// Polled every cycle, asked for the next arrival at odd moments.
			for c := 0; c < cycles; c++ {
				if c%3 == 0 {
					polled.nextAt()
				}
				if got := polled.take(sim.Cycle(c)); got != want[c] {
					t.Fatalf("%s load %v: cycle %d admits %d, stepping admits %d", process, load, c, got, want[c])
				}
			}
			// Visited only on the cycles nextAt names.
			c := sim.Cycle(0)
			for {
				at := jumped.nextAt()
				if at >= cycles {
					break
				}
				for ; c < at; c++ {
					if want[c] != 0 {
						t.Fatalf("%s load %v: draw-ahead skipped the %d arrivals of cycle %d", process, load, want[c], c)
					}
				}
				if got := jumped.take(at); got != want[at] || got == 0 {
					t.Fatalf("%s load %v: cycle %d admits %d, stepping admits %d", process, load, at, got, want[at])
				}
				c = at + 1
			}
		}
		spec := quickSpec(t)
		spec.Arrival = config.ServingArrivalSpec{Process: process}
		spec.ApplyDefaults(true)
		if at := newArrivalProcess(spec, 0, sim.NewRNG(1)).nextAt(); at != noc.Never {
			t.Fatalf("%s at zero load: next arrival at %d, want never", process, at)
		}
	}
}
