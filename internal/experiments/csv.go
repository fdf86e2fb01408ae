package experiments

import (
	"fmt"

	"chipletnoc/internal/stats"
)

// CSV renders the Figure 11 sweep as comma-separated series for
// plotting.
func (r Fig11Result) CSV() string {
	head := []string{"system", "scenario"}
	for _, rate := range r.Rates {
		head = append(head, fmt.Sprintf("%.2f", rate))
	}
	t := stats.NewTable(head...)
	for _, s := range r.Series {
		row := []interface{}{s.System, s.Scenario}
		for _, p := range s.Points {
			row = append(row, fmt.Sprintf("%.1f", p.ProbeLatency))
		}
		t.AddRow(row...)
	}
	return t.CSV()
}

// CSV renders the Table 7 bandwidth rows for plotting.
func (r Table7Result) CSV() string {
	t := stats.NewTable("ratio", "total_tbps", "read_tbps", "write_tbps", "dma_tbps")
	for _, row := range r.Rows {
		t.AddRow(row.Ratio.Name, row.Total, row.Read, row.Write, row.DMA)
	}
	return t.CSV()
}

// ProbeCSV renders the Figure 14 per-core probe series, one row per
// probe, one column per window (bytes/cycle).
func (r Table7Result) ProbeCSV() string {
	if len(r.Series) == 0 {
		return ""
	}
	head := []string{"probe"}
	for w := range r.Series[0] {
		head = append(head, fmt.Sprintf("w%d", w))
	}
	t := stats.NewTable(head...)
	for i, s := range r.Series {
		row := []interface{}{fmt.Sprintf("core%d", i)}
		for _, v := range s {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.AddRow(row...)
	}
	return t.CSV()
}

// CSV renders the fabric comparison.
func (r FabricsResult) CSV() string {
	t := stats.NewTable("organisation", "zero_load_lat", "sat_throughput", "knee_rate")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.ZeroLoadLat, row.SaturationThr, row.Knee)
	}
	return t.CSV()
}
