// Open-loop arrival processes. Requests are admitted by simulation
// cycle — never gated on completions — which is what separates a tail-
// latency experiment from the closed-loop replays: when the fabric
// saturates, the queue grows and the percentiles say so.
package serving

import (
	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// arrivalProcess generates per-cycle arrival counts. Both processes are
// built from Bernoulli draws on a dedicated RNG stream, so a run's
// arrival sequence is a pure function of (seed, load, process) — the
// property the golden-digest reproducibility test pins.
type arrivalProcess struct {
	rng *sim.RNG
	// base arrivals land every cycle; frac is the Bernoulli probability
	// of one more (discrete-time thinning of a Poisson of rate
	// base+frac per cycle).
	base int
	frac float64

	// Markov-modulated on/off state (bursty only): geometric sojourns
	// with mean burstOn / burstOff cycles; arrivals only while on, at a
	// rate scaled up to preserve the offered mean.
	bursty    bool
	on        bool
	pLeaveOn  float64
	pLeaveOff float64

	// Draw-ahead, so the orchestrator can say when the next arrival is
	// due instead of being ticked to find out: cycle is the next cycle
	// whose draws have not been taken; n > 0 arrivals drawn for cycle at
	// wait to be admitted. The stream is private to the process, so
	// drawing early takes the same draws in the same order as one step
	// per cycle.
	cycle, at sim.Cycle
	n         int
}

// newArrivalProcess builds the process for one offered load (requests
// per 1000 cycles). The spec is assumed defaulted and validated.
func newArrivalProcess(spec *config.ServingSpec, load float64, rng *sim.RNG) *arrivalProcess {
	a := &arrivalProcess{rng: rng}
	lambda := load / 1000
	if spec.Arrival.Process == "bursty" {
		a.bursty = true
		a.on = true // start in a burst so short windows see traffic
		on, off := float64(spec.Arrival.BurstOn), float64(spec.Arrival.BurstOff)
		a.pLeaveOn = 1 / on
		a.pLeaveOff = 1 / off
		// Scale the on-state rate so the long-run mean stays at lambda.
		lambda = lambda * (on + off) / on
	}
	a.base = int(lambda)
	a.frac = lambda - float64(a.base)
	return a
}

// nextAt returns the first cycle whose arrivals have not been admitted,
// stepping the process ahead to it; a process that can never produce an
// arrival (zero load) answers noc.Never instead of stepping forever.
func (a *arrivalProcess) nextAt() sim.Cycle {
	if a.n == 0 {
		if a.base == 0 && a.frac <= 0 {
			return noc.Never
		}
		for a.n == 0 {
			a.at = a.cycle
			a.cycle++
			a.n = a.step()
		}
	}
	return a.at
}

// take returns how many requests arrive at cycle now. The orchestrator
// ticks at every cycle nextAt names, so arrivals are never due earlier
// than now.
func (a *arrivalProcess) take(now sim.Cycle) int {
	if a.nextAt() > now {
		return 0
	}
	n := a.n
	a.n = 0
	return n
}

// step advances one cycle and returns how many requests arrive.
func (a *arrivalProcess) step() int {
	if a.bursty {
		if a.on {
			if a.rng.Bernoulli(a.pLeaveOn) {
				a.on = false
			}
		} else if a.rng.Bernoulli(a.pLeaveOff) {
			a.on = true
		}
		if !a.on {
			return 0
		}
	}
	n := a.base
	if a.frac > 0 && a.rng.Bernoulli(a.frac) {
		n++
	}
	return n
}
