package experiments

import (
	"fmt"
	"sort"

	"chipletnoc/internal/stats"
	"chipletnoc/internal/workloads"
)

// SpecIntPanel is one of the four panels of Figures 12/13: a head-to-head
// between this work (possibly scaled down) and one baseline.
type SpecIntPanel struct {
	Name     string // e.g. "single-core", "package", "scaled-vs-8180"
	Baseline string
	// PerBench maps benchmark -> (ours / baseline) normalised score.
	PerBench map[string]float64
	Geomean  float64
}

// SpecIntResult is a whole figure (one suite).
type SpecIntResult struct {
	Suite  string
	Panels []SpecIntPanel
}

// panelSpec names one panel's two systems.
type panelSpec struct {
	name   string
	a, b   workloads.SystemSpec
	single bool
}

// specIntPanels returns the four panels at a scale.
func specIntPanels(scale Scale) []panelSpec {
	ours := workloads.ThisWork96()
	intel := workloads.Intel8280()
	intel8180 := workloads.Intel8180()
	amd := workloads.AMD7742()
	oursVs8180 := workloads.ThisWorkScaled(intel8180.Cores)
	oursVsAMD := workloads.ThisWorkScaled(amd.Cores)
	if scale == Quick {
		ours = quickMultiRing()
		intel = quickMesh("intel-8280", 6)
		intel8180 = quickMesh("intel-8180", 5)
		amd = quickHub()
		oursVs8180 = quickMultiRing()
		oursVsAMD = quickMultiRing()
	}
	return []panelSpec{
		{"single-core", ours, intel, true},
		{"package", ours, intel, false},
		{"scaled-vs-8180", oursVs8180, intel8180, false},
		{"scaled-vs-7742", oursVsAMD, amd, false},
	}
}

// RunSpecInt regenerates Figure 12 (suite2017=true) or Figure 13.
func RunSpecInt(scale Scale, suite2017 bool) SpecIntResult {
	return runSpecInt(scale, suite2017, func(_ int, s workloads.SystemSpec) any { return keyOfSystem(s) })
}

// runSpecInt is RunSpecInt with the job key as a parameter: the tests
// pass the job index, which measures every panel side.
func runSpecInt(scale Scale, suite2017 bool, key func(i int, side workloads.SystemSpec) any) SpecIntResult {
	suite := workloads.SpecInt2006()
	name := "SPECint-2006 (Figure 13)"
	if suite2017 {
		suite = workloads.SpecInt2017()
		name = "SPECint-2017 (Figure 12)"
	}
	// The memory-profile measurements are the expensive simulations: one
	// job per distinct system among the panel sides (the single-core and
	// package panels share both of theirs; at Quick every scaled-down
	// this-work is the same system too), panels assembled from the
	// collected profiles.
	panels := specIntPanels(scale)
	sides := make([]workloads.SystemSpec, 0, 2*len(panels))
	for _, p := range panels {
		sides = append(sides, p.a, p.b)
	}
	profs := RunDistinct("specint", len(sides),
		func(i int) string { return "specint/" + panels[i/2].name + "/" + sides[i].Name },
		func(i int) any { return key(i, sides[i]) },
		func(i int) workloads.MemProfile { return workloads.MeasureMemProfile(sides[i], 0xF12) })

	panel := func(p panelSpec, profA, profB workloads.MemProfile) SpecIntPanel {
		sa := workloads.ScoreSpec(suite, profA, p.a.Cores)
		sb := workloads.ScoreSpec(suite, profB, p.b.Cores)
		out := SpecIntPanel{Name: p.name, Baseline: p.b.Name, PerBench: make(map[string]float64)}
		for _, bench := range suite {
			if p.single {
				out.PerBench[bench.Name] = sa.PerBenchSingle[bench.Name] / sb.PerBenchSingle[bench.Name]
			} else {
				out.PerBench[bench.Name] = sa.PerBenchRate[bench.Name] / sb.PerBenchRate[bench.Name]
			}
		}
		if p.single {
			out.Geomean = sa.GeomeanSingle / sb.GeomeanSingle
		} else {
			out.Geomean = sa.GeomeanRate / sb.GeomeanRate
		}
		return out
	}

	res := SpecIntResult{Suite: name}
	for i, p := range panels {
		res.Panels = append(res.Panels, panel(p, profs[2*i], profs[2*i+1]))
	}
	return res
}

// Render prints the four panels.
func (r SpecIntResult) Render() string {
	out := r.Suite + ": normalised score (this work / baseline)\n"
	for _, p := range r.Panels {
		t := stats.NewTable("benchmark", "ratio")
		names := make([]string, 0, len(p.PerBench))
		for name := range p.PerBench {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.AddRow(name, fmt.Sprintf("%.2f", p.PerBench[name]))
		}
		out += fmt.Sprintf("panel %s (vs %s), geomean %.2fx:\n%s", p.Name, p.Baseline, p.Geomean, t.String())
	}
	return out
}
