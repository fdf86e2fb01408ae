package serving

import (
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

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
