package experiments

import (
	"fmt"

	"chipletnoc/internal/stats"
	"chipletnoc/internal/workloads"
)

// Fig10Result is the LMBench bandwidth comparison (Figure 10): per-kernel
// single-core bandwidth and all-core DDR utilization for this work and
// both baselines, plus the headline geomean ratios.
type Fig10Result struct {
	Kernels []string
	// BySystem[system][kernel]
	BySystem map[string]map[string]workloads.LMBenchResult
	// Headline ratios (this-work / baseline).
	SingleVsIntel, SingleVsAMD float64
	AllVsIntel, AllVsAMD       float64
}

// RunFig10 measures the LMBench suite on the three systems.
func RunFig10(scale Scale) Fig10Result { return runFig10(scale, fig10Key) }

// fig10Key is what a (system, kernel) measurement depends on: the system
// and the kernel's parameters, not its name — wr and bzero, cp and bcopy
// put the same request mix on the memory path and are simulated once.
func fig10Key(_ int, spec workloads.SystemSpec, k workloads.LMBenchKernel) any {
	k.Name = ""
	return struct {
		system systemKey
		kernel workloads.LMBenchKernel
	}{keyOfSystem(spec), k}
}

// runFig10 is RunFig10 with the job key as a parameter: the tests pass
// the job index, which runs every pair.
func runFig10(scale Scale, key func(i int, spec workloads.SystemSpec, k workloads.LMBenchKernel) any) Fig10Result {
	specs := []workloads.SystemSpec{
		workloads.ThisWork96(),
		workloads.Intel8280(),
		workloads.AMD7742(),
	}
	if scale == Quick {
		// Shrink every system proportionally for CI speed.
		for i := range specs {
			shrinkSpec(&specs[i])
		}
	}
	// Every distinct (system, kernel) pair is an independent closed-loop
	// run, fanned out as jobs.
	kernels := workloads.LMBenchKernels()
	type pair struct {
		spec   workloads.SystemSpec
		kernel workloads.LMBenchKernel
	}
	var pairs []pair
	for _, s := range specs {
		for _, k := range kernels {
			pairs = append(pairs, pair{s, k})
		}
	}
	measured := RunDistinct("fig10", len(pairs),
		func(i int) string { return "fig10/" + pairs[i].spec.Name + "/" + pairs[i].kernel.Name },
		func(i int) any { return key(i, pairs[i].spec, pairs[i].kernel) },
		func(i int) workloads.LMBenchResult {
			return workloads.RunLMBench(pairs[i].spec, pairs[i].kernel, 0xF16)
		})
	suite := make(map[string]map[string]workloads.LMBenchResult)
	for i, p := range pairs {
		if suite[p.spec.Name] == nil {
			suite[p.spec.Name] = make(map[string]workloads.LMBenchResult)
		}
		measured[i].Kernel = p.kernel.Name // a shared run carries the first kernel's name
		suite[p.spec.Name][p.kernel.Name] = measured[i]
	}
	res := Fig10Result{BySystem: suite}
	for _, k := range kernels {
		res.Kernels = append(res.Kernels, k.Name)
	}
	ours := suite[specs[0].Name]
	intel := suite[specs[1].Name]
	amd := suite[specs[2].Name]
	single := func(r workloads.LMBenchResult) float64 { return r.SingleCoreGBps }
	all := func(r workloads.LMBenchResult) float64 { return r.AllCoreUtilization }
	res.SingleVsIntel = workloads.GeomeanRatio(ours, intel, single)
	res.SingleVsAMD = workloads.GeomeanRatio(ours, amd, single)
	res.AllVsIntel = workloads.GeomeanRatio(ours, intel, all)
	res.AllVsAMD = workloads.GeomeanRatio(ours, amd, all)
	return res
}

// shrinkSpec cuts a system's core count for Quick runs while preserving
// its organisation.
func shrinkSpec(s *workloads.SystemSpec) {
	switch s.Name {
	case "this-work":
		*s = quickMultiRing()
	case "intel-8280", "intel-8180", "intel-6148":
		*s = quickMesh(s.Name, s.CoreMLP)
	case "amd-7742":
		*s = quickHub()
	}
}

// Render prints the figure's data as two tables.
func (r Fig10Result) Render() string {
	t1 := stats.NewTable(append([]string{"System"}, r.Kernels...)...)
	t2 := stats.NewTable(append([]string{"System"}, r.Kernels...)...)
	for _, sys := range []string{"this-work", "intel-8280", "amd-7742"} {
		m, ok := r.BySystem[sys]
		if !ok {
			continue
		}
		row1 := []interface{}{sys}
		row2 := []interface{}{sys}
		for _, k := range r.Kernels {
			row1 = append(row1, fmt.Sprintf("%.1f", m[k].SingleCoreGBps))
			row2 = append(row2, fmt.Sprintf("%.2f", m[k].AllCoreUtilization))
		}
		t1.AddRow(row1...)
		t2.AddRow(row2...)
	}
	return "Figure 10: LMBench NoC bandwidth\n" +
		"single-core bandwidth (GB/s):\n" + t1.String() +
		"all-core DDR utilization:\n" + t2.String() +
		fmt.Sprintf("geomean single-core: %.2fx vs Intel-8280, %.2fx vs AMD-7742 (paper: 3.23x, 1.77x)\n",
			r.SingleVsIntel, r.SingleVsAMD) +
		fmt.Sprintf("geomean all-core:    %.2fx vs Intel-8280, %.2fx vs AMD-7742 (paper: 1.19x, 1.70x)\n",
			r.AllVsIntel, r.AllVsAMD)
}
