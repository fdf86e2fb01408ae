package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// column summarises one side's runs of one metric.
type column struct {
	values         []float64
	median, q1, q3 float64
}

func summarise(values []float64) column {
	c := column{values: values, median: median(values)}
	c.q1, c.q3 = quartiles(values)
	return c
}

// spread is the interquartile distance as a share of the median.
func (c column) spread() float64 {
	if c.median == 0 {
		return 0
	}
	return (c.q3 - c.q1) / c.median
}

// judge compares a (the parent) with b (the change) under the metric's
// bound: worse when b's median is worse than a's by more than the bound;
// unresolved when either side's own spread is wider than the bound,
// unless every run of b reads better than every run of a; else ok.
func judge(m metricDef, a, b column) string {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	if a.median != 0 && sign*(b.median-a.median)/a.median > m.Bound {
		return verdictWorse
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		allBetter := len(a.values) > 0 && len(b.values) > 0
		for _, x := range a.values {
			for _, y := range b.values {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	return verdictOK
}

func readReports(path string) (map[string]map[string][]float64, map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	sims := map[string]map[string]string{}      // "workload/seed" -> simulated statistics
	for _, r := range f.Runs {
		if r.Trace || !r.Correct {
			continue // a failed run counts as missing
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
		sims[fmt.Sprintf("%s/%s/seed-%d", r.Workload, r.Size, r.Seed)] = r.Sim
	}
	return values, sims, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// checks that simulated statistics of equal (workload, seed) runs are
// identical between the two files.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, simA, err := readReports(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, simB, err := readReports(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-16s %5s | %12s %12s %12s %3s | %12s %12s %12s %3s | %7s %6s  %s\n",
		"workload", "metric", "unit", "a.median", "a.q1", "a.q3", "n", "b.median", "b.q1", "b.q3", "n", "change", "bound", "verdict")
	worse := false
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-16s %-16s %5s | missing on one side (%d and %d runs)\n", w.name, m.Name, m.Unit, len(va), len(vb))
				continue
			}
			ca, cb := summarise(va), summarise(vb)
			v := judge(m, ca, cb)
			worse = worse || v == verdictWorse
			change := 0.0
			if ca.median != 0 {
				change = (cb.median - ca.median) / ca.median
			}
			fmt.Fprintf(stdout, "%-16s %-16s %5s | %12.6g %12.6g %12.6g %3d | %12.6g %12.6g %12.6g %3d | %+6.1f%% %5.0f%%  %s\n",
				w.name, m.Name, m.Unit, ca.median, ca.q1, ca.q3, len(va), cb.median, cb.q1, cb.q3, len(vb), 100*change, 100*m.Bound, v)
		}
	}
	moved := 0
	for _, k := range sortedKeys(simA) {
		other, ok := simB[k]
		if !ok {
			continue
		}
		for _, stat := range sortedKeys(simA[k]) {
			if simA[k][stat] != other[stat] {
				moved++
				fmt.Fprintf(stdout, "simulated statistic moved: %s %s: %q -> %q\n", k, stat, simA[k][stat], other[stat])
			}
		}
	}
	fmt.Fprintf(stdout, "simulated statistics that differ between the files: %d\n", moved)
	if worse || moved > 0 {
		return 1
	}
	return 0
}
