package workloads

// CompetitionPoint is one sample of the Figure 11 sweep: a probe core's
// DDR latency while every other core generates background traffic at the
// given intensity.
type CompetitionPoint struct {
	// NoiseRate is the background cores' per-cycle issue probability.
	NoiseRate float64
	// ProbeLatency is the probe core's mean round-trip in cycles.
	ProbeLatency float64
}

// CompetitionScenario selects the background mix.
type CompetitionScenario struct {
	Name string
	// ReadFraction of background requests.
	ReadFraction float64
}

// CompetitionScenarios returns the three Figure 11 noise mixes.
func CompetitionScenarios() []CompetitionScenario {
	return []CompetitionScenario{
		{Name: "read", ReadFraction: 1.0},
		{Name: "write", ReadFraction: 0.0},
		{Name: "hybrid", ReadFraction: 0.5},
	}
}

// competitionCycles is the per-point measurement window.
const competitionCycles = 15000

// RunCompetition sweeps background intensity and measures the probe
// core's latency on the given system. The sweep axis is the *offered
// fraction of DDR saturation* — systems with different core counts and
// channel counts see the same aggregate pressure at the same x, so the
// turning-point comparison isolates the interconnect (the paper's
// figure normalises DDR channels and frequency the same way).
func RunCompetition(spec SystemSpec, sc CompetitionScenario, rates []float64, seed uint64) []CompetitionPoint {
	satTransPerCycle := spec.MemBytesPerCycle * float64(spec.MemChannels) / 64
	points := make([]CompetitionPoint, 0, len(rates))
	for i, rate := range rates {
		perCore := rate * satTransPerCycle / float64(spec.Cores-1)
		if perCore > 1 {
			perCore = 1
		}
		loads := make([]CoreLoad, spec.Cores)
		// Core 0 is the probe: one outstanding read at a time, like the
		// paper's pointer-chasing latency test. Noise cores get a fixed
		// deep MLP so the offered load is not capped differently across
		// systems.
		loads[0] = CoreLoad{Rate: 1, Outstanding: 1, ReadFraction: 1}
		for c := 1; c < spec.Cores; c++ {
			loads[c] = CoreLoad{Rate: perCore, Outstanding: 32, ReadFraction: sc.ReadFraction}
		}
		m := spec.NewMemSystem(loads, seed+uint64(i))
		m.Run(competitionCycles)
		points = append(points, CompetitionPoint{NoiseRate: rate, ProbeLatency: m.Core(0).MeanLatency()})
	}
	return points
}

// TurningPoint returns the first noise rate where the probe latency
// exceeds multiple x the zero-noise latency — "the turning points of this
// work come later" is the Figure 11 claim.
func TurningPoint(points []CompetitionPoint, multiple float64) float64 {
	if len(points) == 0 {
		return 0
	}
	base := points[0].ProbeLatency
	if base <= 0 {
		base = 1
	}
	for _, p := range points {
		if p.ProbeLatency > base*multiple {
			return p.NoiseRate
		}
	}
	return points[len(points)-1].NoiseRate + 1 // never turned within the sweep
}
