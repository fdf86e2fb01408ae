package soc

import (
	"bytes"
	"testing"

	"chipletnoc/internal/metrics"
	"chipletnoc/internal/trace"
)

// The differential instrumentation tests are the PR's load-bearing
// guarantee: attaching the full observability stack — metrics registry
// sampling every cycle plus the structured tracer — to a fixed-seed run
// must leave the flit digest bit-identical to the uninstrumented golden
// run. The registry only reads simulator state, so any digest drift here
// means a probe mutated what it was supposed to watch.

func instrument(reg *metrics.Registry, enable func(*metrics.Registry)) *metrics.Registry {
	enable(reg)
	return reg
}

func TestMetricsDoNotPerturbAIProcessor(t *testing.T) {
	a := goldenAIBuild()
	reg := instrument(metrics.New(1), a.Net.EnableMetrics) // sample every cycle: worst case
	a.Net.Tracer = trace.New(1 << 14)
	latencies, latencyFNV := hashLatencies(a.Net)
	a.Run(3000)

	checkDigest(t, digestNet(a.Net, latencies, latencyFNV), goldenAIDigest)

	// The instrumentation itself must have observed the run: counters
	// mirror the network's totals, series carry one sample per cycle.
	snap := reg.Snapshot("ai", 3000)
	if got := snap.Counters["noc.flits.delivered"]; got != a.Net.DeliveredFlits {
		t.Errorf("delivered counter = %d, want %d", got, a.Net.DeliveredFlits)
	}
	if got := snap.Counters["noc.flits.injected"]; got != a.Net.InjectedFlits {
		t.Errorf("injected counter = %d, want %d", got, a.Net.InjectedFlits)
	}
	for _, s := range snap.Series {
		if len(s.Cycles) != 3000 {
			t.Fatalf("series %s has %d samples, want 3000", s.Name, len(s.Cycles))
		}
	}
	if a.Net.Tracer.Total == 0 {
		t.Error("tracer recorded no events during the instrumented run")
	}
}

func TestMetricsDoNotPerturbServerCPU(t *testing.T) {
	s := goldenServerBuild()
	reg := instrument(metrics.New(1), s.Net.EnableMetrics)
	s.Net.Tracer = trace.New(1 << 14)
	latencies, latencyFNV := hashLatencies(s.Net)
	s.Run(4000)

	checkDigest(t, digestNet(s.Net, latencies, latencyFNV), goldenServerDigest)

	snap := reg.Snapshot("server", 4000)
	if got := snap.Counters["noc.flits.delivered"]; got != s.Net.DeliveredFlits {
		t.Errorf("delivered counter = %d, want %d", got, s.Net.DeliveredFlits)
	}
}

// TestInstrumentedExportsAreDeterministic pins that two identical
// instrumented runs produce byte-identical JSON metrics snapshots and
// Chrome traces — the property CI artifact diffing relies on.
func TestInstrumentedExportsAreDeterministic(t *testing.T) {
	runOnce := func() (metricsJSON, chromeJSON []byte) {
		a := goldenAIBuild()
		reg := instrument(metrics.New(50), a.Net.EnableMetrics)
		a.Net.Tracer = trace.New(1 << 14)
		a.Run(3000)
		var mbuf, cbuf bytes.Buffer
		if err := reg.Snapshot("ai", 3000).WriteJSON(&mbuf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := a.Net.Tracer.WriteChrome(&cbuf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return mbuf.Bytes(), cbuf.Bytes()
	}
	m1, c1 := runOnce()
	m2, c2 := runOnce()
	if !bytes.Equal(m1, m2) {
		t.Error("metrics snapshots differ between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("chrome traces differ between identical runs")
	}
}
