package experiments

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/coherence"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
)

// ScaleUpRow is one package count's coherence behaviour.
type ScaleUpRow struct {
	Packages int
	Cores    int
	// IntraLatency / CrossLatency are M-line coherent read latencies
	// within package 0 and from the farthest package (cycles).
	IntraLatency float64
	CrossLatency float64
}

// ScaleUpResult is the multi-socket extension experiment: the paper
// claims the PA links scale the system to 4P with >300 cores under one
// coherence domain (Section 4.2); this measures what that costs.
type ScaleUpResult struct {
	Rows []ScaleUpRow
}

// RunScaleUp measures coherent read latency as the system grows from 1P
// to 4P.
func RunScaleUp(scale Scale) ScaleUpResult {
	// One job per package count; the intra and cross measurements within
	// a job share the built system deliberately (cross reads follow the
	// intra warm-up, as in the original sequential run).
	pkgCounts := []int{1, 2, 4}
	measurePkg := func(pkgs int) ScaleUpRow {
		cfg := soc.DefaultServerConfig()
		cfg.Packages = pkgs
		if scale == Quick {
			cfg.ClustersPerDie = 2
		}
		s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
		perPkg := cfg.ComputeDies * cfg.ClustersPerDie * cfg.CoresPerCluster

		measure := func(reader *coherence.CoreAgent) float64 {
			var hist stats.Histogram
			reader.OnComplete = func(m *chi.Message, l uint64) { hist.Add(float64(l)) }
			n := scale.cycles(8, 32)
			var addrs []uint64
			for i := 0; len(addrs) < n; i++ {
				addr := uint64(i) * chi.LineSize
				if home := s.Homes.HomeOf(addr); home >= cfg.ClustersPerDie {
					continue // home on package 0, die 0
				}
				s.Dirs[s.Homes.HomeOf(addr)].SetLine(addr, coherence.Modified, s.Cores[0].Node())
				addrs = append(addrs, addr)
			}
			for _, a := range addrs {
				reader.Read(a)
			}
			s.Net.RunUntil(func() bool { return hist.Count() == len(addrs) }, 500000)
			reader.OnComplete = nil
			return hist.Mean()
		}

		row := ScaleUpRow{Packages: pkgs, Cores: cfg.TotalCores()}
		row.IntraLatency = measure(s.Cores[2])
		if pkgs > 1 {
			row.CrossLatency = measure(s.Cores[(pkgs-1)*perPkg+2])
		}
		return row
	}
	return ScaleUpResult{Rows: RunIndexed("scaleup", len(pkgCounts),
		func(i int) string { return fmt.Sprintf("scaleup/%dP", pkgCounts[i]) },
		func(i int) ScaleUpRow { return measurePkg(pkgCounts[i]) })}
}

// Render prints the scale-up table.
func (r ScaleUpResult) Render() string {
	t := stats.NewTable("Packages", "Cores", "intra-pkg M-read (cyc)", "cross-pkg M-read (cyc)")
	for _, row := range r.Rows {
		cross := "-"
		if row.CrossLatency > 0 {
			cross = fmt.Sprintf("%.0f", row.CrossLatency)
		}
		t.AddRow(row.Packages, row.Cores, fmt.Sprintf("%.0f", row.IntraLatency), cross)
	}
	return "Extension: multi-package scale-up over PA links (Section 4.2's 4P claim)\n" + t.String()
}
