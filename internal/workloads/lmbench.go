package workloads

import "sort"

// LMBenchKernel is one bandwidth micro-benchmark of Figure 10, reduced to
// the request mix it puts on the memory path.
type LMBenchKernel struct {
	Name string
	// ReadFraction of line transfers that are reads.
	ReadFraction float64
	// MLPScale scales the system's per-core outstanding budget: kernels
	// that go through the OS read/write interface (frd, fwr) cannot keep
	// as many misses in flight as raw loops.
	MLPScale float64
	// Rate is the issue-attempt probability (sub-1 models per-access
	// software overhead).
	Rate float64
}

// LMBenchKernels returns the Figure 10 suite.
func LMBenchKernels() []LMBenchKernel {
	return []LMBenchKernel{
		{Name: "rd", ReadFraction: 1.0, MLPScale: 1.0, Rate: 1.0},
		{Name: "frd", ReadFraction: 1.0, MLPScale: 0.5, Rate: 0.7},
		{Name: "wr", ReadFraction: 0.0, MLPScale: 1.0, Rate: 1.0},
		{Name: "fwr", ReadFraction: 0.0, MLPScale: 0.5, Rate: 0.7},
		{Name: "cp", ReadFraction: 0.5, MLPScale: 1.0, Rate: 1.0},
		{Name: "bzero", ReadFraction: 0.0, MLPScale: 1.0, Rate: 1.0},
		{Name: "bcopy", ReadFraction: 0.5, MLPScale: 1.0, Rate: 1.0},
	}
}

// LMBenchResult is one (system, kernel) measurement.
type LMBenchResult struct {
	System string
	// SingleCoreGBps is one core against the whole package's channels.
	SingleCoreGBps float64
	// AllCoreUtilization is delivered/peak DDR bandwidth with every core
	// competing.
	AllCoreUtilization float64
}

// lmbenchCycles is the measurement window; long enough for the closed
// loops to reach steady state on every fabric.
const lmbenchCycles = 20000

// RunLMBench measures one kernel on one system, single-core and
// all-core.
func RunLMBench(spec SystemSpec, k LMBenchKernel, seed uint64) LMBenchResult {
	mlp := int(float64(spec.CoreMLP)*k.MLPScale + 0.5)
	if mlp < 1 {
		mlp = 1
	}
	load := CoreLoad{Rate: k.Rate, Outstanding: mlp, ReadFraction: k.ReadFraction}

	single := spec.NewMemSystem(spec.SingleCoreLoad(load), seed)
	single.Run(lmbenchCycles)

	all := spec.NewMemSystem(spec.UniformLoads(load), seed+1)
	all.Run(lmbenchCycles)

	return LMBenchResult{
		System:             spec.Name,
		SingleCoreGBps:     single.BandwidthGBps(),
		AllCoreUtilization: all.Utilization(),
	}
}

// GeomeanRatio returns the geometric-mean ratio of metric(a)/metric(b)
// across kernels — the "x times better on average" figure the paper
// quotes.
func GeomeanRatio(a, b map[string]LMBenchResult, metric func(LMBenchResult) float64) float64 {
	// Float multiplication is order-sensitive at the last ulp, so reduce
	// in sorted-key order: the figure must not depend on map iteration.
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	prod := 1.0
	n := 0
	for _, k := range keys {
		ra := a[k]
		rb, ok := b[k]
		if !ok {
			continue
		}
		den := metric(rb)
		if den == 0 {
			continue
		}
		prod *= metric(ra) / den
		n++
	}
	if n == 0 {
		return 0
	}
	return pow(prod, 1/float64(n))
}
