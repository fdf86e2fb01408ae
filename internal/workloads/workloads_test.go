package workloads

import (
	"testing"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/noc"
)

// smallSpec is a fast fixture: a small multiring system.
func smallSpec() SystemSpec {
	return SystemSpec{
		Name: "small", Cores: 8, MemChannels: 2, CoreMLP: 8,
		NewFabric:  func() baseline.Fabric { return baseline.NewMultiRing(10, true) },
		CoreNodes:  func() []int { return seq(0, 8) },
		MemNodes:   func() []int { return seq(8, 2) },
		MemLatency: 50, MemBytesPerCycle: 8.5,
	}
}

func TestMemSystemMovesData(t *testing.T) {
	spec := smallSpec()
	m := spec.NewMemSystem(spec.UniformLoads(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 0.5}), 1)
	m.Run(5000)
	if m.TotalBytes() == 0 {
		t.Fatal("no data moved")
	}
	if m.Core(0).completed == 0 || m.Core(0).MeanLatency() <= 0 {
		t.Fatal("no round trip measured")
	}
	if u := m.Utilization(); u <= 0 || u > 1.01 {
		t.Fatalf("utilization %v out of range", u)
	}
}

// TestMemSystemRunPublishesEngineStats: a MemSystem ticks its fabric
// itself, so Run tells the process-wide engine report what a wrapped
// network did — once per call, only what was gained since the last one,
// ports by kind — and a queueing model, which has no gate, adds nothing.
func TestMemSystemRunPublishesEngineStats(t *testing.T) {
	portTicks := func() (ticks, skipped uint64) {
		for _, k := range noc.DeviceTickTotals() {
			if k.Kind == "baseline.mrPort" {
				return k.Ticks, k.Skipped
			}
		}
		return 0, 0
	}
	spec := smallSpec()
	m := spec.NewMemSystem(spec.UniformLoads(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 0.5}), 1)
	for _, cycles := range []int{500, 300} {
		before := noc.EngineTotals()
		ticks0, skipped0 := portTicks()
		m.Run(cycles)
		got := noc.EngineTotals().Sub(before)
		if got.Cycles != uint64(cycles) || got.DeviceTicks != uint64(10*cycles) || got.DeviceTicksSkipped == 0 {
			t.Fatalf("Run(%d) published %+v, want %d cycles of 10 devices with ticks skipped", cycles, got, cycles)
		}
		ticks, skipped := portTicks()
		if ran := ticks - ticks0; ran == 0 || ran+skipped-skipped0 != uint64(10*cycles) {
			t.Fatalf("Run(%d) published %d port ticks run and %d skipped, want %d in all", cycles, ran, skipped-skipped0, 10*cycles)
		}
	}
	mesh := Intel6148()
	before := noc.EngineTotals()
	mesh.NewMemSystem(mesh.UniformLoads(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 0.5}), 1).Run(200)
	if got := noc.EngineTotals().Sub(before); got != (noc.EngineStats{}) {
		t.Fatalf("a queueing fabric published %+v", got)
	}
}

func TestMemSystemMaxRequestsStops(t *testing.T) {
	spec := smallSpec()
	loads := spec.UniformLoads(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 1, MaxRequests: 10})
	m := spec.NewMemSystem(loads, 2)
	m.Run(20000)
	for i := 0; i < spec.Cores; i++ {
		if got := m.Core(i).completed; got != 10 {
			t.Fatalf("core %d completed %d, want 10", i, got)
		}
	}
}

func TestMemSystemSingleCoreLoad(t *testing.T) {
	spec := smallSpec()
	m := spec.NewMemSystem(spec.SingleCoreLoad(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 1}), 3)
	m.Run(3000)
	if m.Core(0).completed == 0 {
		t.Fatal("probe idle")
	}
	for i := 1; i < spec.Cores; i++ {
		if m.Core(i).completed != 0 {
			t.Fatalf("idle core %d issued traffic", i)
		}
	}
}

func TestLatencyRisesWithNoise(t *testing.T) {
	spec := smallSpec()
	points := RunCompetition(spec, CompetitionScenario{Name: "read", ReadFraction: 1},
		[]float64{0.0, 0.8}, 4)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].ProbeLatency <= points[0].ProbeLatency {
		t.Fatalf("noise did not raise probe latency: %v -> %v",
			points[0].ProbeLatency, points[1].ProbeLatency)
	}
}

func TestTurningPoint(t *testing.T) {
	pts := []CompetitionPoint{
		{NoiseRate: 0.1, ProbeLatency: 100},
		{NoiseRate: 0.2, ProbeLatency: 120},
		{NoiseRate: 0.3, ProbeLatency: 450},
	}
	if tp := TurningPoint(pts, 2); tp != 0.3 {
		t.Fatalf("turning point %v", tp)
	}
	if tp := TurningPoint(pts, 10); tp <= 0.3 {
		t.Fatalf("no-turn fallback %v", tp)
	}
	if TurningPoint(nil, 2) != 0 {
		t.Fatal("empty sweep")
	}
}

func TestLMBenchKernelsComplete(t *testing.T) {
	ks := LMBenchKernels()
	if len(ks) != 7 {
		t.Fatalf("kernels = %d", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.ReadFraction < 0 || k.ReadFraction > 1 || k.Rate <= 0 || k.MLPScale <= 0 {
			t.Fatalf("bad kernel %+v", k)
		}
	}
}

func TestRunLMBenchProducesBandwidth(t *testing.T) {
	res := RunLMBench(smallSpec(), LMBenchKernels()[0], 5)
	if res.SingleCoreGBps <= 0 {
		t.Fatal("no single-core bandwidth")
	}
	if res.AllCoreUtilization <= 0 || res.AllCoreUtilization > 1.01 {
		t.Fatalf("all-core utilization %v", res.AllCoreUtilization)
	}
	if res.AllCoreUtilization*float64(smallSpec().MemChannels)*8.5*3 < res.SingleCoreGBps/1000 {
		t.Fatal("all-core cannot be below a single core's share")
	}
}

func TestGeomeanRatio(t *testing.T) {
	a := map[string]LMBenchResult{
		"rd": {SingleCoreGBps: 20}, "wr": {SingleCoreGBps: 10},
	}
	b := map[string]LMBenchResult{
		"rd": {SingleCoreGBps: 10}, "wr": {SingleCoreGBps: 10},
	}
	r := GeomeanRatio(a, b, func(r LMBenchResult) float64 { return r.SingleCoreGBps })
	if r < 1.40 || r > 1.43 { // sqrt(2) ≈ 1.414
		t.Fatalf("ratio %v", r)
	}
}

func TestMeasureMemProfile(t *testing.T) {
	prof := MeasureMemProfile(smallSpec(), 6)
	if prof.UnloadedLatency <= 0 {
		t.Fatal("no unloaded latency")
	}
	if prof.LoadedLatency < prof.UnloadedLatency {
		t.Fatalf("loaded %v < unloaded %v", prof.LoadedLatency, prof.UnloadedLatency)
	}
}

func TestScoreSpecOrdersBySensitivity(t *testing.T) {
	fast := MemProfile{System: "fast", UnloadedLatency: 50, LoadedLatency: 70}
	slow := MemProfile{System: "slow", UnloadedLatency: 150, LoadedLatency: 300}
	sFast := ScoreSpec(SpecInt2017(), fast, 16)
	sSlow := ScoreSpec(SpecInt2017(), slow, 16)
	if sFast.GeomeanSingle <= sSlow.GeomeanSingle {
		t.Fatal("lower latency must score higher")
	}
	// mcf (memory bound) must suffer more from slow memory than
	// exchange2 (compute bound).
	mcfRatio := sFast.PerBenchSingle["mcf"] / sSlow.PerBenchSingle["mcf"]
	exRatio := sFast.PerBenchSingle["exchange2"] / sSlow.PerBenchSingle["exchange2"]
	if mcfRatio <= exRatio {
		t.Fatalf("sensitivity inverted: mcf %v vs exchange2 %v", mcfRatio, exRatio)
	}
}

func TestSpecSuitesWellFormed(t *testing.T) {
	for _, suite := range [][]SpecBenchmark{SpecInt2017(), SpecInt2006()} {
		names := map[string]bool{}
		for _, b := range suite {
			if names[b.Name] {
				t.Fatalf("duplicate %s", b.Name)
			}
			names[b.Name] = true
			if b.BaseCPI <= 0 || b.MPKI < 0 {
				t.Fatalf("bad benchmark %+v", b)
			}
		}
	}
	if len(SpecInt2017()) != 10 || len(SpecInt2006()) != 12 {
		t.Fatal("suite sizes wrong")
	}
}

func TestRunSpecPower(t *testing.T) {
	res := RunSpecPower(smallSpec(), 7)
	if res.SingleCoreScore <= 0 || res.PackageScore <= 0 {
		t.Fatalf("scores: %+v", res)
	}
}

func TestResNet50TraceMatchesPublishedCost(t *testing.T) {
	layers := ResNet50Layers()
	fwd := TotalFLOPs(layers) / 3 // trace stores fwd+bwd = 3x fwd
	// Published forward cost ~4.1 GMACs = ~8.2 GFLOPs at 224x224 (the
	// trace counts multiply+add as two operations); accept 6-10.
	if fwd < 6e9 || fwd > 10e9 {
		t.Fatalf("ResNet-50 forward FLOPs = %.3g", fwd)
	}
	if len(layers) < 40 {
		t.Fatalf("trace too coarse: %d layers", len(layers))
	}
}

func TestBERTTraceScale(t *testing.T) {
	layers := BERTLayers()
	if len(layers) != 24*6 {
		t.Fatalf("layers = %d", len(layers))
	}
	// BERT-large at seq 512 forward ~ hundreds of GFLOPs per sample.
	fwd := TotalFLOPs(layers) / 3
	if fwd < 1e11 || fwd > 1e12 {
		t.Fatalf("BERT forward FLOPs = %.3g", fwd)
	}
}

func TestRooflineRespectsBottlenecks(t *testing.T) {
	layers := []Layer{{Name: "x", FLOPs: 1e12, Bytes: 1e9}}
	fast := Accelerator{PeakFLOPS: 1e15, MemBW: 1e12, NoCBW: 1e13, Efficiency: 1, ReuseFactor: 1}
	slowMem := fast
	slowMem.MemBW = 1e10
	if StepTime(layers, slowMem) <= StepTime(layers, fast) {
		t.Fatal("memory bottleneck ignored")
	}
	slowNoC := fast
	slowNoC.NoCBW = 1e10
	if StepTime(layers, slowNoC) <= StepTime(layers, fast) {
		t.Fatal("NoC bottleneck ignored")
	}
}

func TestCompareMLPerfDirection(t *testing.T) {
	ours := ThisWorkAccelerator(16)
	a100 := A100Accelerator()
	for _, tc := range []struct {
		model  string
		layers []Layer
	}{
		{"resnet50", ResNet50Layers()},
		{"bert", BERTLayers()},
		{"maskrcnn", MaskRCNNLayers()},
	} {
		cmp := CompareMLPerf(tc.model, tc.layers, ours, a100)
		if cmp.Speedup <= 1.5 {
			t.Fatalf("%s speedup %v; the paper reports ~3x", tc.model, cmp.Speedup)
		}
		if cmp.Speedup > 8 {
			t.Fatalf("%s speedup %v implausibly high", tc.model, cmp.Speedup)
		}
		if cmp.EnergyRatio <= 1 {
			t.Fatalf("%s energy ratio %v; we must be more efficient", tc.model, cmp.EnergyRatio)
		}
	}
}

func TestGeomeanHelper(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate cases")
	}
}

// TestNarrowChannelStillGrants: a channel whose bucket cap (64 cycles of
// bandwidth) is below one line must still serve — the cap never sits
// below the head request's size — and at its full rate, not starve with
// the requests queued forever.
func TestNarrowChannelStillGrants(t *testing.T) {
	spec := smallSpec()
	spec.MemBytesPerCycle = 0.5
	m := spec.NewMemSystem(spec.UniformLoads(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 0.5}), 1)
	m.Run(20000)
	peak := spec.MemBytesPerCycle * float64(spec.MemChannels) * float64(m.Cycles())
	if got := float64(m.TotalBytes()); got < 0.9*peak || got > peak {
		t.Fatalf("narrow channels moved %.0f bytes in %d cycles, want about %.0f", got, m.Cycles(), peak)
	}
}
