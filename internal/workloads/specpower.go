package workloads

import (
	"chipletnoc/internal/baseline"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/phys"
)

// SpecPowerResult is one system's Table 6 entry: the ssj-style
// performance-per-watt score at graduated load levels.
type SpecPowerResult struct {
	System string
	// SingleCoreScore and PackageScore are ops-per-watt style figures
	// (arbitrary units, comparable across systems).
	SingleCoreScore float64
	PackageScore    float64
}

// powerModel captures the per-system power structure: core power scales
// with activity; NoC power comes from the phys energy model applied to
// the fabric's event counters.
type powerModel struct {
	// CoreActiveW is per-core power at full load.
	CoreActiveW float64
	// UncoreBaseW is the fixed package overhead.
	UncoreBaseW float64
}

// defaultPowerModel is shared across systems so the score differences
// come from throughput and NoC energy, not core-power assumptions.
func defaultPowerModel() powerModel {
	return powerModel{CoreActiveW: 3.0, UncoreBaseW: 20}
}

// specPowerLoadLevels are the ssj load ladder (fraction of full load).
var specPowerLoadLevels = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// NoCEnergyPJ estimates NoC energy for a run from the fabric's counters
// using the phys calibration. Bufferless rings pay wire+station per hop;
// buffered organisations additionally pay a router traversal per hop.
func NoCEnergyPJ(f baseline.Fabric) float64 {
	hops, routerTraversals, linkTransfers := f.NocCounters()
	e := phys.DefaultEnergyModel()
	bits := (64 + noc.HeaderBytes) * 8
	return e.TotalPJ(phys.TrafficEnergy{
		FlitHops:         hops,
		FlitBits:         bits,
		HopDistanceMm:    1.8, // one high-speed-fabric jump
		RouterTraversals: routerTraversals,
		BufferedEntries:  routerTraversals, // each buffered hop writes+reads a queue
		LinkBits:         linkTransfers * uint64(bits),
	})
}

// ssj-worklet model: the benchmark is throughput-oriented Java work with
// modest memory intensity; each core's instruction rate degrades with the
// measured memory latency, and the package burns core power plus the
// interconnect's measured energy.
const (
	ssjBaseCPI = 1.0
	ssjMPKI    = 2.0
)

// RunSpecPower evaluates one system: at each ssj load level the memory
// harness measures the loaded memory latency and the fabric's energy
// counters; per-core throughput follows the CPI model and power
// integrates cores, uncore and NoC.
func RunSpecPower(spec SystemSpec, seed uint64) SpecPowerResult {
	pm := defaultPowerModel()
	const window = 8000

	score := func(activeCores int) float64 {
		var opsSum, wattSum float64
		// ssj keeps the memory system around half-saturated at full
		// load, normalised per system so the comparison isolates the
		// interconnect's latency and energy.
		satTrans := spec.MemBytesPerCycle * float64(spec.MemChannels) / 64
		for i, level := range specPowerLoadLevels {
			perCore := level * 0.5 * satTrans / float64(activeCores)
			if perCore > 1 {
				perCore = 1
			}
			loads := make([]CoreLoad, spec.Cores)
			for c := range loads {
				if c < activeCores {
					loads[c] = CoreLoad{Rate: perCore, Outstanding: spec.CoreMLP, ReadFraction: 0.7}
				} else {
					loads[c] = CoreLoad{Rate: 0, Outstanding: 1}
				}
			}
			m := spec.NewMemSystem(loads, seed+uint64(i))
			m.Run(window)
			// Measured loaded memory latency feeds the worklet CPI.
			lat := m.Core(0).MeanLatency()
			if lat == 0 {
				lat = float64(spec.MemLatency)
			}
			ipc := spec.CoreIPC
			if ipc == 0 {
				ipc = 1
			}
			cpi := ssjBaseCPI/ipc + ssjMPKI/1000*lat
			ops := float64(activeCores) * level * float64(window) / cpi
			nocW := NoCEnergyPJ(m.cfg.Fabric) * 1e-12 / (float64(window) / 3e9) // pJ over window seconds
			activeW := pm.CoreActiveW
			if spec.CorePowerW > 0 {
				activeW = spec.CorePowerW
			}
			idleW := activeW * 0.15 // clock-gated idle
			coreW := float64(activeCores)*(idleW+(activeW-idleW)*level) +
				float64(spec.Cores-activeCores)*idleW
			opsSum += ops
			wattSum += coreW + pm.UncoreBaseW + nocW
		}
		if wattSum == 0 {
			return 0
		}
		// ssj-style: sum of ops over sum of watts across the ladder.
		return opsSum / wattSum
	}

	return SpecPowerResult{
		System:          spec.Name,
		SingleCoreScore: score(1),
		PackageScore:    score(spec.Cores),
	}
}
