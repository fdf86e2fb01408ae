package experiments

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
)

// Ratio is one read:write mix of Table 7.
type Ratio struct {
	Name         string
	ReadFraction float64
}

// Table7Ratios returns the paper's six mixes.
func Table7Ratios() []Ratio {
	return []Ratio{
		{"1:1", 0.5},
		{"2:1", 2.0 / 3},
		{"4:1", 0.8},
		{"3:2", 0.6},
		{"1:0", 1.0},
		{"0:1", 0.0},
	}
}

// Table7Row is one measured mix: bandwidth by class, in TB/s, counted as
// the paper does — payload passing the wire probes at the receiving
// nodes.
type Table7Row struct {
	Ratio Ratio
	Total float64
	Read  float64
	Write float64
	DMA   float64
}

// Table7Result is the full bandwidth table. It also retains the per-core
// window series the Figure 14 equilibrium analysis consumes for the 1:1
// run.
type Table7Result struct {
	Rows   []Table7Row
	Series [][]float64
}

// RunTable7 measures AI-NoC bandwidth at each read:write ratio on the
// paper-scale AI die.
func RunTable7(scale Scale) Table7Result {
	warmup := scale.cycles(800, 3000)
	window := scale.cycles(1500, 6000)
	probeWindow := uint64(scale.cycles(500, 1000))

	// One job per read:write mix; each builds and runs its own AI die.
	// The 1:1 job additionally captures the per-core probe series
	// Figure 14 consumes.
	type mixOut struct {
		row    Table7Row
		series [][]float64
	}
	ratios := Table7Ratios()
	measure := func(ratio Ratio) mixOut {
		cfg := soc.DefaultAIConfig()
		if scale == Quick {
			cfg.VRings, cfg.HRings = 6, 4
			cfg.CoresPerVRing, cfg.L2PerHRing = 2, 3
			cfg.HBMStacks, cfg.DMAEngines = 4, 4
		}
		cfg.ReadFraction = ratio.ReadFraction
		a := soc.BuildAIProcessor(cfg)
		dmaNodes := make(map[noc.NodeID]bool, len(a.DMAs)+2)
		for _, d := range a.DMAs {
			dmaNodes[d.Node()] = true
		}
		if a.HostDMA != nil {
			dmaNodes[a.HostDMA.Node()] = true
		}
		if a.Host != nil {
			dmaNodes[a.Host.Node()] = true
		}
		var rd, wr, dma uint64
		counting := false
		a.Net.OnDeliver = func(f *noc.Flit, now sim.Cycle) {
			if !counting || f.PayloadBytes == 0 {
				return
			}
			m := chi.MsgOf(f)
			switch {
			case dmaNodes[f.Dst] || dmaNodes[f.Src]:
				dma += uint64(f.PayloadBytes)
			case m != nil && m.Op == chi.CompData:
				rd += uint64(f.PayloadBytes)
			case m != nil && m.Op == chi.NonCopyBackWrData:
				wr += uint64(f.PayloadBytes)
			}
		}
		a.Run(warmup)
		counting = true
		start := a.Net.Ticks()

		// Per-core probes for the 1:1 equilibrium analysis (Figure 14).
		isEquilibriumRun := ratio.ReadFraction == 0.5
		var probes []*stats.BandwidthProbe
		var lastMoved []uint64
		if isEquilibriumRun {
			for _, c := range a.Cores {
				probes = append(probes, stats.NewBandwidthProbe(probeWindow))
				lastMoved = append(lastMoved, c.BytesMoved)
			}
		}
		remaining := window
		for remaining > 0 {
			step := int(probeWindow)
			if step > remaining {
				step = remaining
			}
			a.Run(step)
			remaining -= step
			if isEquilibriumRun {
				for i, c := range a.Cores {
					probes[i].Record(c.BytesMoved - lastMoved[i])
					lastMoved[i] = c.BytesMoved
					probes[i].CloseWindow()
				}
			}
		}
		elapsed := a.Net.Ticks() - start
		row := Table7Row{
			Ratio: ratio,
			Read:  soc.BandwidthTBps(rd, elapsed),
			Write: soc.BandwidthTBps(wr, elapsed),
			DMA:   soc.BandwidthTBps(dma, elapsed),
		}
		row.Total = row.Read + row.Write + row.DMA
		out := mixOut{row: row}
		if isEquilibriumRun {
			for _, p := range probes {
				out.series = append(out.series, p.Series())
			}
		}
		return out
	}

	outs := RunIndexed("table7", len(ratios),
		func(i int) string { return "table7/" + ratios[i].Name },
		func(i int) mixOut { return measure(ratios[i]) })

	var res Table7Result
	for _, o := range outs {
		res.Rows = append(res.Rows, o.row)
		if o.series != nil {
			res.Series = o.series
		}
	}
	return res
}

// Render prints the table.
func (r Table7Result) Render() string {
	t := stats.NewTable("R-W Ratio", "Total", "Read", "Write", "DMA")
	for _, row := range r.Rows {
		t.AddRow(row.Ratio.Name,
			fmt.Sprintf("%.1f", row.Total), fmt.Sprintf("%.1f", row.Read),
			fmt.Sprintf("%.1f", row.Write), fmt.Sprintf("%.1f", row.DMA))
	}
	return "Table 7: AI-NoC bandwidth (TB/s)\n" + t.String() +
		"paper: 16.0/13.9/12.4/15.4/11.2/10.0 total for 1:1/2:1/4:1/3:2/1:0/0:1\n"
}
