package experiments

import (
	"fmt"
	"strings"
	"testing"

	"chipletnoc/internal/coherence"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/soc"
)

func TestTable5ShapesHold(t *testing.T) {
	r := RunTable5(Quick)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKey := map[string]Table5Row{}
	for _, row := range r.Rows {
		byKey[row.Scope+row.State.String()] = row
		if row.ThisWork <= 0 {
			t.Fatalf("missing measurement: %+v", row)
		}
	}
	// Inter-chiplet must cost more than intra for every state.
	for _, st := range []string{"M", "E", "S"} {
		if byKey["inter"+st].ThisWork <= byKey["intra"+st].ThisWork {
			t.Fatalf("state %s: inter (%v) <= intra (%v)", st,
				byKey["inter"+st].ThisWork, byKey["intra"+st].ThisWork)
		}
	}
	// This work beats the baselines inter-chiplet (the paper's claim).
	inter := byKey["inter"+coherence.Modified.String()]
	if inter.ThisWork >= inter.AMD7742 {
		t.Fatalf("this work (%v) must beat AMD (%v) inter-chiplet", inter.ThisWork, inter.AMD7742)
	}
	if !strings.Contains(r.Render(), "Table 5") {
		t.Fatal("render broken")
	}
}

func TestFig10ShapesHold(t *testing.T) {
	r := RunFig10(Quick)
	if len(r.Kernels) != 7 {
		t.Fatalf("kernels = %d", len(r.Kernels))
	}
	if r.SingleVsIntel <= 1 {
		t.Fatalf("single-core vs Intel = %v, paper reports 3.23x", r.SingleVsIntel)
	}
	if r.SingleVsAMD <= 1 {
		t.Fatalf("single-core vs AMD = %v, paper reports 1.77x", r.SingleVsAMD)
	}
	if r.AllVsAMD <= 1 {
		t.Fatalf("all-core vs AMD = %v, paper reports 1.70x", r.AllVsAMD)
	}
	if !strings.Contains(r.Render(), "Figure 10") {
		t.Fatal("render broken")
	}
}

func TestFig11TurningPointsOrdered(t *testing.T) {
	r := RunFig11(Quick)
	if len(r.Series) != 6 {
		t.Fatalf("series = %d", len(r.Series))
	}
	turning := map[string]map[string]float64{}
	for _, s := range r.Series {
		if turning[s.Scenario] == nil {
			turning[s.Scenario] = map[string]float64{}
		}
		turning[s.Scenario][s.System] = s.Turning
	}
	// The paper's claim: our turning points come later (>=; quick-scale
	// sweeps are coarse).
	for sc, m := range turning {
		if m["this-work"] < m["intel-6148"] {
			t.Fatalf("scenario %s: our turning point %v earlier than Intel's %v",
				sc, m["this-work"], m["intel-6148"])
		}
	}
	if !strings.Contains(r.Render(), "Figure 11") {
		t.Fatal("render broken")
	}
}

func TestSpecIntPanels(t *testing.T) {
	for _, suite2017 := range []bool{true, false} {
		r := RunSpecInt(Quick, suite2017)
		if len(r.Panels) != 4 {
			t.Fatalf("panels = %d", len(r.Panels))
		}
		for _, p := range r.Panels {
			if p.Geomean <= 0 {
				t.Fatalf("panel %s geomean %v", p.Name, p.Geomean)
			}
			if len(p.PerBench) == 0 {
				t.Fatalf("panel %s empty", p.Name)
			}
		}
		// Single-core panel: lower memory latency must win overall.
		if r.Panels[0].Geomean <= 1 {
			t.Fatalf("single-core geomean %v; this work should win", r.Panels[0].Geomean)
		}
		if !strings.Contains(r.Render(), "panel") {
			t.Fatal("render broken")
		}
	}
}

func TestTable6ScoresOrdered(t *testing.T) {
	r := RunTable6(Quick)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	scores := map[string]float64{}
	for _, row := range r.Rows {
		if row.PackageScore <= 0 || row.SingleCoreScore <= 0 {
			t.Fatalf("non-positive score: %+v", row)
		}
		scores[row.System] = row.PackageScore
	}
	if scores["this-work"] <= scores["amd-7742"] {
		t.Fatalf("this work (%v) must beat AMD (%v) on perf/W", scores["this-work"], scores["amd-7742"])
	}
	if !strings.Contains(r.Render(), "Table 6") {
		t.Fatal("render broken")
	}
}

func TestTable7Shape(t *testing.T) {
	r := RunTable7(Quick)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Table7Row{}
	for _, row := range r.Rows {
		byName[row.Ratio.Name] = row
		if row.Total <= 0 {
			t.Fatalf("ratio %s total %v", row.Ratio.Name, row.Total)
		}
	}
	// Read bandwidth must rise with read share; write must fall.
	if byName["1:0"].Read <= byName["1:1"].Read {
		t.Fatal("read bandwidth did not rise with read share")
	}
	if byName["0:1"].Write <= byName["1:1"].Write {
		t.Fatal("write bandwidth did not rise with write share")
	}
	// Pure write is the worst total (CHI write flow costs two round
	// trips).
	for _, other := range []string{"1:1", "2:1", "4:1", "3:2", "1:0"} {
		if byName["0:1"].Total > byName[other].Total {
			t.Fatalf("0:1 (%v) should be the lowest total; %s is %v",
				byName["0:1"].Total, other, byName[other].Total)
		}
	}
	if len(r.Series) == 0 {
		t.Fatal("no probe series captured for Figure 14")
	}
	if !strings.Contains(r.Render(), "Table 7") {
		t.Fatal("render broken")
	}
}

func TestFig14Equilibrium(t *testing.T) {
	t7 := RunTable7(Quick)
	r := RunFig14(Quick, &t7)
	if r.Probes == 0 || r.Windows == 0 {
		t.Fatalf("no probes/windows: %+v", r)
	}
	// The interleaved design's whole point: bandwidth is spread evenly.
	// The quick-scale die has few transactions per window so the metric
	// is noisy; the full-scale run (EXPERIMENTS.md) reaches 1.000.
	if r.EquilibriumAt80 < 0.5 {
		t.Fatalf("equilibrium@80%% = %v; the paper reports near-1", r.EquilibriumAt80)
	}
	if !strings.Contains(r.Render(), "Figure 14") {
		t.Fatal("render broken")
	}
}

func TestTable8Speedups(t *testing.T) {
	r := RunTable8(Quick, nil)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup <= 1 {
			t.Fatalf("%s speedup %v; paper reports ~3x", row.Model, row.Speedup)
		}
		if row.EnergyRatio <= 1 {
			t.Fatalf("%s energy ratio %v", row.Model, row.EnergyRatio)
		}
	}
	if !strings.Contains(r.Render(), "Table 8") {
		t.Fatal("render broken")
	}
}

func TestAblationBufferless(t *testing.T) {
	r := RunAblationBufferless(Quick)
	if r.BufferlessArea >= r.BufferedArea {
		t.Fatal("bufferless must be smaller")
	}
	if r.BufferlessPJ >= r.BufferedPJ {
		t.Fatalf("bufferless pJ/flit (%v) must beat buffered (%v)", r.BufferlessPJ, r.BufferedPJ)
	}
	if r.BufferlessLat <= 0 || r.BufferedLat <= 0 {
		t.Fatal("missing latencies")
	}
	if !strings.Contains(r.Render(), "bufferless") {
		t.Fatal("render broken")
	}
}

func TestAblationHalfFull(t *testing.T) {
	r := RunAblationHalfFull(Quick)
	if r.FullThru <= r.HalfThru {
		t.Fatalf("full ring throughput (%v) must exceed half ring (%v)", r.FullThru, r.HalfThru)
	}
	if r.FullSlots != 2*r.HalfSlots {
		t.Fatal("full ring must cost twice the slot registers")
	}
}

func TestAblationWireFabric(t *testing.T) {
	r := RunAblationWireFabric(Quick)
	if r.DensePositions != 3*r.SpeedPositions {
		t.Fatalf("positions %d vs %d; Table 4 ratio is 3x", r.DensePositions, r.SpeedPositions)
	}
	if r.DenseLat <= r.SpeedLat {
		t.Fatalf("dense fabric latency (%v) must exceed high-speed (%v)", r.DenseLat, r.SpeedLat)
	}
	if r.SpeedAreaMm2 >= r.DenseAreaMm2 {
		t.Fatal("high-speed effective area must win")
	}
}

func TestAblationSwap(t *testing.T) {
	r := RunAblationSwap(Quick)
	if !r.WithoutSwapStalled {
		t.Fatal("rig without SWAP did not deadlock")
	}
	if r.WithSwapDelivered <= r.WithoutSwapDelivered {
		t.Fatalf("SWAP (%d) must outperform deadlock (%d)", r.WithSwapDelivered, r.WithoutSwapDelivered)
	}
	if r.DRMActivations == 0 {
		t.Fatal("DRM never triggered")
	}
}

func TestAblationTags(t *testing.T) {
	r := RunAblationTags(Quick)
	if r.OnDelivered == 0 {
		t.Fatal("no deliveries with tags on")
	}
	// The E-tag bound: with tags a deflected flit is served within a
	// couple of laps; without them some flit keeps losing the eject race
	// (livelock) and its deflection count explodes.
	if r.OffMaxLiveDeflect < 10*r.OnMaxLiveDeflect {
		t.Fatalf("tags-off worst live deflections (%d) should dwarf tags-on (%d)",
			r.OffMaxLiveDeflect, r.OnMaxLiveDeflect)
	}
}

func TestScaleUp(t *testing.T) {
	r := RunScaleUp(Quick)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Quick scale shrinks clusters; the >300-core claim is checked on
	// the full configuration's arithmetic.
	full := soc.DefaultServerConfig()
	full.Packages = 4
	if full.TotalCores() <= 300 {
		t.Fatalf("4P cores = %d, paper claims >300", full.TotalCores())
	}
	for _, row := range r.Rows {
		if row.IntraLatency <= 0 {
			t.Fatalf("missing intra latency: %+v", row)
		}
		if row.Packages > 1 && row.CrossLatency <= row.IntraLatency {
			t.Fatalf("%dP cross (%v) must exceed intra (%v)",
				row.Packages, row.CrossLatency, row.IntraLatency)
		}
	}
	if !strings.Contains(r.Render(), "scale-up") {
		t.Fatal("render broken")
	}
}

func TestAreaReport(t *testing.T) {
	r := RunAreaReport(Quick)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Stations == 0 || row.BufferlessMm2 <= 0 {
			t.Fatalf("empty inventory: %+v", row)
		}
		if row.BufferlessMm2 >= row.BufferedMm2 {
			t.Fatalf("%s: bufferless (%v mm^2) must beat buffered (%v mm^2)",
				row.System, row.BufferlessMm2, row.BufferedMm2)
		}
	}
	if !strings.Contains(r.Render(), "Area-efficiency") {
		t.Fatal("render broken")
	}
}

func TestFabricComparison(t *testing.T) {
	r := RunFabricComparison(Quick)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]FabricRow{}
	for _, row := range r.Rows {
		if row.ZeroLoadLat <= 0 || row.SaturationThr <= 0 {
			t.Fatalf("empty row %+v", row)
		}
		byName[row.Name] = row
	}
	// The bufferless ring's zero-load latency must beat the buffered
	// ring's (no per-hop router pipeline) — Section 3.4.2.
	if byName["bufferless-multiring"].ZeroLoadLat >= byName["buffered-ring"].ZeroLoadLat {
		t.Fatalf("bufferless (%v) must beat buffered ring (%v) at zero load",
			byName["bufferless-multiring"].ZeroLoadLat, byName["buffered-ring"].ZeroLoadLat)
	}
	if !strings.Contains(r.Render(), "organisation") {
		t.Fatal("render broken")
	}
}

func TestLayerReplay(t *testing.T) {
	r := RunLayerReplay(Quick)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	paced, hungry := r.Rows[0], r.Rows[1]
	if paced.AchievedTBps <= 0 || hungry.AchievedTBps <= 0 {
		t.Fatalf("no traffic: %+v", r.Rows)
	}
	// The compute-paced replay must keep close to schedule; the
	// fabric-hungry one must slip substantially more.
	if hungry.SlipFraction <= paced.SlipFraction {
		t.Fatalf("fabric-hungry slip (%v) must exceed compute-paced (%v)",
			hungry.SlipFraction, paced.SlipFraction)
	}
	// And the hungry run must achieve more raw bandwidth (it saturates
	// the die).
	if hungry.AchievedTBps <= paced.AchievedTBps {
		t.Fatalf("achieved: hungry %v <= paced %v", hungry.AchievedTBps, paced.AchievedTBps)
	}
	if !strings.Contains(r.Render(), "layer") {
		t.Fatal("render broken")
	}
}

func TestCSVOutputs(t *testing.T) {
	f11 := RunFig11(Quick)
	csv := f11.CSV()
	if !strings.Contains(csv, "this-work,read") {
		t.Fatalf("fig11 csv:\n%s", csv)
	}
	t7 := RunTable7(Quick)
	if !strings.Contains(t7.CSV(), "1:1,") {
		t.Fatal("table7 csv broken")
	}
	if t7.ProbeCSV() == "" || !strings.Contains(t7.ProbeCSV(), "core0") {
		t.Fatal("probe csv broken")
	}
	fab := RunFabricComparison(Quick)
	if !strings.Contains(fab.CSV(), "bufferless-multiring") {
		t.Fatal("fabrics csv broken")
	}
}

func TestResilienceDegradesGracefully(t *testing.T) {
	r := RunResilience(Quick)
	if len(r.Points) != 2*len(r.Counts) {
		t.Fatalf("points = %d", len(r.Points))
	}
	byKey := map[string]ResiliencePoint{}
	for _, p := range r.Points {
		byKey[fmt.Sprintf("%s/%d", p.System, p.Faults)] = p
		// Graceful degradation, not collapse: every point still delivers.
		if p.Throughput <= 0 {
			t.Fatalf("%s with %d faults delivered nothing", p.System, p.Faults)
		}
	}
	for _, sys := range []string{"server-cpu", "ai-processor"} {
		healthy := byKey[sys+"/0"]
		worst := byKey[fmt.Sprintf("%s/%d", sys, r.Counts[len(r.Counts)-1])]
		// The zero-fault run must be clean: no drops, no aborts.
		if healthy.Dropped != 0 || healthy.Aborted != 0 {
			t.Fatalf("%s fault-free run dropped %d flits, aborted %d txns", sys, healthy.Dropped, healthy.Aborted)
		}
		// The faulted run must actually have exercised the machinery.
		if worst.Dropped == 0 {
			t.Fatalf("%s with %d faults dropped nothing", sys, worst.Faults)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Resilience") {
		t.Fatal("render broken")
	}
	if !strings.Contains(r.CSV(), "server-cpu") {
		t.Fatal("csv broken")
	}
}

// TestArtifactsPublishTheirCycles pins that an artifact's every simulated
// cycle reaches the process-wide engine totals `-timing` reports: each
// rig runs its network through Run, which publishes as it returns.
func TestArtifactsPublishTheirCycles(t *testing.T) {
	published := func(run func()) uint64 {
		before := noc.EngineTotals()
		run()
		return noc.EngineTotals().Sub(before).Cycles
	}
	// Four runs of 600 warm-up and 2500 measured cycles.
	if got := published(func() { RunResilience(Quick) }); got != 12400 {
		t.Errorf("resilience published %d cycles, want 12400", got)
	}
	// Two runs each: the SWAP rig 30000 + 10000 cycles, the tag rig 4000,
	// and the wire-fabric rig two laps per flit for 20 flits, on rings of
	// 72 and 24 positions.
	got := published(func() {
		RunAblationSwap(Quick)
		RunAblationTags(Quick)
		RunAblationWireFabric(Quick)
	})
	if want := uint64(2*40000 + 2*4000 + 20*2*(72+24)); got != want {
		t.Errorf("SWAP, tag and wire-fabric rigs published %d cycles, want %d", got, want)
	}
}

func TestAblationThrottle(t *testing.T) {
	r := RunAblationThrottle(Quick)
	if r.PlainTBps <= 0 || r.ThrottledTBps <= 0 {
		t.Fatalf("dead runs: %+v", r)
	}
	// The controller must cut deflection waste at the overdriven point.
	if r.ThrottledDefl >= r.PlainDefl {
		t.Fatalf("throttled waste %.3f >= plain %.3f", r.ThrottledDefl, r.PlainDefl)
	}
}
