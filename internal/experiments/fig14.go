package experiments

import (
	"fmt"

	"chipletnoc/internal/stats"
)

// Fig14Result quantifies the bandwidth-equilibrium claim: during the 1:1
// Table 7 run, every AI-core probe should see more than 80% of the
// per-window maximum bandwidth most of the time.
type Fig14Result struct {
	Probes  int
	Windows int
	// EquilibriumAt80 is the fraction of (probe, window) points at or
	// above 80% of the best probe's mean bandwidth (EquilibriumVsPeak).
	EquilibriumAt80 float64
	// WorstShare is the lowest probe/max share observed in any window.
	WorstShare float64
}

// RunFig14 derives the equilibrium metrics from a Table 7 run (reusing
// its 1:1 probe series, or running one if t is nil).
func RunFig14(scale Scale, t *Table7Result) Fig14Result {
	if t == nil || len(t.Series) == 0 {
		r := RunTable7(scale)
		t = &r
	}
	series := t.Series
	res := Fig14Result{
		Probes:          len(series),
		EquilibriumAt80: stats.EquilibriumVsPeak(series, 0.8),
		WorstShare:      worstShare(series),
	}
	if len(series) > 0 {
		res.Windows = len(series[0])
	}
	return res
}

// worstShare finds the minimum probe-mean/peak-mean ratio: how far the
// most starved probe sits below the best one over the whole run.
func worstShare(series [][]float64) float64 {
	peak := stats.PeakMeanRate(series)
	if peak == 0 {
		return 0
	}
	worst := 1.0
	for _, s := range series {
		if len(s) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		if share := sum / float64(len(s)) / peak; share < worst {
			worst = share
		}
	}
	return worst
}

// Render prints the metrics.
func (r Fig14Result) Render() string {
	return "Figure 14: NoC bandwidth equilibrium (1:1 run)\n" +
		fmt.Sprintf("probes: %d, windows: %d\n", r.Probes, r.Windows) +
		fmt.Sprintf("fraction of (probe,window) points at >=80%% of window max: %.3f\n", r.EquilibriumAt80) +
		fmt.Sprintf("worst probe share of window max: %.2f\n", r.WorstShare) +
		"paper claim: for most of the time, all probes get more than 80% of the maximum bandwidth\n"
}
