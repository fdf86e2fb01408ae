package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Add(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramAddAfterQueryKeepsOrder(t *testing.T) {
	var h Histogram
	h.Add(5)
	h.Add(1)
	_ = h.Percentile(50) // forces a sort
	h.Add(3)
	if h.Min() != 1 || h.Max() != 5 || h.Percentile(50) != 3 {
		t.Fatalf("min/med/max = %v/%v/%v", h.Min(), h.Percentile(50), h.Max())
	}
}

func TestBandwidthProbe(t *testing.T) {
	p := NewBandwidthProbe("n0", 10)
	p.Record(64)
	p.Record(64)
	p.CloseWindow()
	p.Record(640)
	p.CloseWindow()
	s := p.Series()
	if len(s) != 2 || s[0] != 12.8 || s[1] != 64 {
		t.Fatalf("series = %v", s)
	}
	if p.TotalBytes() != 768 {
		t.Fatalf("TotalBytes = %d", p.TotalBytes())
	}
}

func TestBandwidthProbePanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBandwidthProbe("x", 0)
}

func TestEquilibriumPerfectBalance(t *testing.T) {
	series := [][]float64{{10, 10, 10}, {10, 10, 10}, {10, 10, 10}}
	if e := EquilibriumVsPeak(series, 0.8); e != 1 {
		t.Fatalf("EquilibriumVsPeak = %v, want 1", e)
	}
}

func TestEquilibriumImbalance(t *testing.T) {
	series := [][]float64{{10, 10}, {1, 1}}
	// Peak mean is 10; probe0 passes, probe1 (0.1 of it) fails → 0.5.
	if e := EquilibriumVsPeak(series, 0.8); e != 0.5 {
		t.Fatalf("EquilibriumVsPeak = %v, want 0.5", e)
	}
}

func TestEquilibriumEdgeCases(t *testing.T) {
	if EquilibriumVsPeak([][]float64{{}, {}}, 0.8) != 0 {
		t.Fatal("empty windows")
	}
	// An all-zero window is a starved window: it scores as a miss against
	// the peak mean (5 here), not skipped.
	if e := EquilibriumVsPeak([][]float64{{0, 10}, {0, 10}}, 0.8); e != 0.5 {
		t.Fatalf("zero-window handling: %v", e)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Status", "This work", "Baseline")
	tb.AddRow("M", 44, 138)
	tb.AddRow("E", 44.0, 139.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Status") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "44") || !strings.Contains(lines[2], "138") {
		t.Fatalf("row: %q", lines[2])
	}
	if !strings.Contains(lines[3], "44.00") {
		t.Fatalf("float formatting: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", 1)
	tb.AddRow(`quote"inside`, 2.5)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[0] != "a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != `"x,y",1` {
		t.Fatalf("row1 %q", lines[1])
	}
	if lines[2] != `"quote""inside",2.50` {
		t.Fatalf("row2 %q", lines[2])
	}
}
