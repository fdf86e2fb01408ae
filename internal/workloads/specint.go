package workloads

// SpecBenchmark reduces one SPECint component to the two parameters
// through which the memory system determines its score: base CPI with a
// perfect memory system, and misses-to-memory per kilo-instruction. The
// values are calibration estimates assembled from published
// characterisation studies of the suites; the *relative* sensitivity
// (mcf/libquantum/omnetpp memory-bound, exchange2/sjeng compute-bound) is
// what drives the Figure 12/13 shapes.
type SpecBenchmark struct {
	Name    string
	BaseCPI float64
	// MPKI is L2-miss (memory-path) misses per 1000 instructions.
	MPKI float64
}

// SpecInt2017 returns the SPECint-2017 rate suite model (Figure 12).
func SpecInt2017() []SpecBenchmark {
	return []SpecBenchmark{
		{Name: "perlbench", BaseCPI: 0.65, MPKI: 0.9},
		{Name: "gcc", BaseCPI: 0.75, MPKI: 2.2},
		{Name: "mcf", BaseCPI: 0.55, MPKI: 24.0},
		{Name: "omnetpp", BaseCPI: 0.70, MPKI: 10.5},
		{Name: "xalancbmk", BaseCPI: 0.70, MPKI: 4.8},
		{Name: "x264", BaseCPI: 0.50, MPKI: 1.1},
		{Name: "deepsjeng", BaseCPI: 0.80, MPKI: 1.4},
		{Name: "leela", BaseCPI: 0.85, MPKI: 0.7},
		{Name: "exchange2", BaseCPI: 0.75, MPKI: 0.1},
		{Name: "xz", BaseCPI: 0.70, MPKI: 4.2},
	}
}

// SpecInt2006 returns the SPECint-2006 suite model (Figure 13).
func SpecInt2006() []SpecBenchmark {
	return []SpecBenchmark{
		{Name: "perlbench", BaseCPI: 0.60, MPKI: 1.0},
		{Name: "bzip2", BaseCPI: 0.70, MPKI: 2.8},
		{Name: "gcc", BaseCPI: 0.80, MPKI: 4.0},
		{Name: "mcf", BaseCPI: 0.50, MPKI: 30.0},
		{Name: "gobmk", BaseCPI: 0.90, MPKI: 1.0},
		{Name: "hmmer", BaseCPI: 0.50, MPKI: 0.8},
		{Name: "sjeng", BaseCPI: 0.90, MPKI: 0.5},
		{Name: "libquantum", BaseCPI: 0.45, MPKI: 25.0},
		{Name: "h264ref", BaseCPI: 0.50, MPKI: 1.2},
		{Name: "omnetpp", BaseCPI: 0.70, MPKI: 12.0},
		{Name: "astar", BaseCPI: 0.80, MPKI: 8.0},
		{Name: "xalancbmk", BaseCPI: 0.70, MPKI: 6.0},
	}
}

// MemProfile is a system's measured memory behaviour, the simulation
// input to the SPEC score model.
type MemProfile struct {
	System string
	// UnloadedLatency is one core's round trip with an idle package.
	UnloadedLatency float64
	// LoadedLatency is the round trip with every core running
	// SPEC-typical load.
	LoadedLatency float64
	// PeakLinesPerCycle is the package's aggregate memory bandwidth in
	// cache lines per cycle — the SPECrate ceiling for memory-bound
	// components.
	PeakLinesPerCycle float64
}

// MeasureMemProfile runs the two latency measurements on a system.
func MeasureMemProfile(spec SystemSpec, seed uint64) MemProfile {
	single := spec.NewMemSystem(spec.SingleCoreLoad(CoreLoad{Rate: 1, Outstanding: 1, ReadFraction: 1}), seed)
	single.Run(competitionCycles)

	// SPEC-typical package load: the suite keeps the memory system
	// around two-thirds saturated, normalised per system so the loaded
	// latency reflects the interconnect rather than pure DDR queueing.
	satTrans := spec.MemBytesPerCycle * float64(spec.MemChannels) / 64
	perCore := 0.66 * satTrans / float64(spec.Cores)
	if perCore > 1 {
		perCore = 1
	}
	loads := spec.UniformLoads(CoreLoad{Rate: perCore, Outstanding: 0, ReadFraction: 0.7})
	loads[0] = CoreLoad{Rate: 1, Outstanding: 1, ReadFraction: 1}
	all := spec.NewMemSystem(loads, seed+1)
	all.Run(competitionCycles)

	return MemProfile{
		System:            spec.Name,
		UnloadedLatency:   single.Core(0).MeanLatency(),
		LoadedLatency:     all.Core(0).MeanLatency(),
		PeakLinesPerCycle: spec.MemBytesPerCycle * float64(spec.MemChannels) / 64,
	}
}

// SpecScore evaluates the suite on a memory profile. Single-core scores
// use the unloaded latency; package scores multiply per-core throughput
// (at loaded latency) by the core count. Scores are rate-style: higher is
// better, proportional to instructions per cycle.
type SpecScore struct {
	System string
	// PerBench maps benchmark name to score.
	PerBenchSingle map[string]float64
	PerBenchRate   map[string]float64
	// GeomeanSingle and GeomeanRate summarise the suite.
	GeomeanSingle float64
	GeomeanRate   float64
}

// ScoreSpec computes suite scores for a system.
func ScoreSpec(suite []SpecBenchmark, prof MemProfile, cores int) SpecScore {
	s := SpecScore{
		System:         prof.System,
		PerBenchSingle: make(map[string]float64),
		PerBenchRate:   make(map[string]float64),
	}
	var singles, rates []float64
	for _, b := range suite {
		cpiSingle := b.BaseCPI + b.MPKI/1000*prof.UnloadedLatency
		cpiLoaded := b.BaseCPI + b.MPKI/1000*prof.LoadedLatency
		single := 1 / cpiSingle
		rate := float64(cores) / cpiLoaded
		// SPECrate is capped by aggregate memory bandwidth: the package
		// cannot retire more instructions per cycle than its channels
		// can feed misses for.
		if b.MPKI > 0 && prof.PeakLinesPerCycle > 0 {
			if bwCap := prof.PeakLinesPerCycle * 1000 / b.MPKI; rate > bwCap {
				rate = bwCap
			}
		}
		s.PerBenchSingle[b.Name] = single
		s.PerBenchRate[b.Name] = rate
		singles = append(singles, single)
		rates = append(rates, rate)
	}
	s.GeomeanSingle = geomean(singles)
	s.GeomeanRate = geomean(rates)
	return s
}
