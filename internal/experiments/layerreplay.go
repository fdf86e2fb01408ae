package experiments

import (
	"fmt"

	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/traffic"
	"chipletnoc/internal/workloads"
)

// LayerReplayRow is one layer replayed on the simulated AI die.
type LayerReplayRow struct {
	Layer string
	Kind  workloads.LayerKind
	// DemandTBps is the issue-rate the compute schedule generates;
	// AchievedTBps is what the NoC actually carried.
	DemandTBps   float64
	AchievedTBps float64
	// SlipFraction is accumulated replay slip relative to the recorded
	// schedule length (0 = the NoC kept up perfectly; values above 1
	// mean the layer took multiples of its scheduled time).
	SlipFraction float64
}

// LayerReplayResult validates the Table 8 roofline's fabric term: layer
// traces generated from the MLPerf models replay on the cycle-accurate
// AI die, and a compute-bound layer must not slip while a fabric-hungry
// one must saturate near the die's measured ceiling.
type LayerReplayResult struct {
	Rows []LayerReplayRow
}

// RunLayerReplay replays representative ResNet-50 layers at different
// demand intensities.
func RunLayerReplay(scale Scale) LayerReplayResult {
	layers := workloads.ResNet50Layers()
	// A mid-network conv stage: substantial but structured traffic.
	conv := layers[10]
	acc := workloads.ThisWorkAccelerator(12.0)

	cases := []struct {
		name   string
		layer  workloads.Layer
		demand float64 // bytes/cycle aggregate
	}{
		// Compute-bound pacing: demand well under the die's capability.
		{"conv (compute-paced)", conv, 800},
		// Fabric-hungry pacing: demand beyond the measured Table 7
		// ceiling, so the replay must slip and saturate.
		{"conv (fabric-hungry)", conv, 16000},
	}

	replay := func(c struct {
		name   string
		layer  workloads.Layer
		demand float64
	}) LayerReplayRow {
		cfg := soc.DefaultAIConfig()
		if scale == Quick {
			cfg.VRings, cfg.HRings = 6, 4
			cfg.CoresPerVRing, cfg.L2PerHRing = 2, 3
			cfg.HBMStacks, cfg.DMAEngines = 4, 0
		} else {
			cfg.DMAEngines = 0 // the layer trace is the only traffic
		}
		cfg.IODie = false
		cfg.CoreRate = 0 // silence the built-in generators

		// Scale the layer's traffic to a tractable simulation length:
		// keep its shape but fix the per-core op count.
		opsPerCore := scale.cycles(150, 600)
		var reps []*traffic.Replayer
		var traces [][]traffic.TraceOp
		cfg.BeforeFinalize = func(a *soc.AIProcessor) {
			nCores := len(a.Cores)
			scaled := c.layer
			scaled.Bytes = float64(opsPerCore * nCores * cfg.LineBytes)
			traces = workloads.LayerTrace(scaled, nCores, cfg.LineBytes, c.demand, 0.3)
			l2Nodes := a.L2Nodes()
			for i, core := range a.Cores {
				rep := traffic.NewReplayer(a.Net, fmt.Sprintf("rep.%d", i), traces[i], 48,
					traffic.InterleavedTargetsBy(l2Nodes, cfg.LineBytes), core.Iface.Station())
				reps = append(reps, rep)
			}
		}
		a := soc.BuildAIProcessor(cfg)

		start := a.Net.Snapshot()
		budget := scale.cycles(40000, 200000)
		done := func() bool {
			for _, r := range reps {
				if !r.Done() {
					return false
				}
			}
			return true
		}
		ran := 0
		for ; ran < budget && !done(); ran += 200 {
			a.Run(200)
		}
		delta := a.Net.Snapshot().Since(start)

		var slip, sched uint64
		var moved uint64
		for i, r := range reps {
			slip += r.SlipCycles
			moved += r.BytesMoved
			if n := len(traces[i]); n > 0 {
				sched += traces[i][n-1].Cycle + 1
			}
		}
		row := LayerReplayRow{
			Layer:        c.name,
			Kind:         workloads.Classify(c.layer, acc),
			DemandTBps:   c.demand * 3e9 / 1e12,
			AchievedTBps: soc.BandwidthTBps(moved, delta.Cycles),
		}
		if sched > 0 {
			row.SlipFraction = float64(slip) / float64(sched)
		}
		return row
	}
	return LayerReplayResult{Rows: RunIndexed("replay", len(cases),
		func(i int) string { return "replay/" + cases[i].name },
		func(i int) LayerReplayRow { return replay(cases[i]) })}
}

// Render prints the replay validation.
func (r LayerReplayResult) Render() string {
	t := stats.NewTable("layer", "demand TB/s", "achieved TB/s", "slip index")
	for _, row := range r.Rows {
		t.AddRow(row.Layer, fmt.Sprintf("%.1f", row.DemandTBps),
			fmt.Sprintf("%.1f", row.AchievedTBps), fmt.Sprintf("%.2f", row.SlipFraction))
	}
	return "Extension: MLPerf layer traces replayed on the AI die (validates the Table 8 fabric term)\n" + t.String()
}
