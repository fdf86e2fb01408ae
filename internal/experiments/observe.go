// Observability reference run: a fixed-seed AI-Processor simulation with
// the metrics registry and structured tracer attached, used by
// cmd/experiments -metrics / -trace-chrome to produce a meaningful
// artifact without changing any experiment's own measurement path (the
// experiments deliberately keep instrumentation off so their numbers
// stay bit-identical to the golden runs).
package experiments

import (
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/trace"
)

// ObservedRun is the artifact bundle from one instrumented reference run.
type ObservedRun struct {
	// Snapshot is the end-of-run metrics snapshot (counters, gauges and
	// the cycle-sampled series).
	Snapshot *metrics.Snapshot
	// Tracer retains the run's structured events for Chrome export.
	Tracer *trace.Tracer
	// Cycles is the simulated run length.
	Cycles uint64
}

// observedTraceCap bounds the tracer ring buffer; at Quick scale the
// whole run fits, at Full scale the tail (the steady state) is retained.
const observedTraceCap = 1 << 17

// RunObservedAI builds the AI-Processor die (Quick-shrunk like the other
// experiments, paper-scale at Full), attaches a metrics registry sampling
// every interval cycles and a structured tracer, and runs it. Fixed
// seeds make the returned snapshot and trace deterministic.
func RunObservedAI(scale Scale, interval uint64) ObservedRun {
	if interval == 0 {
		interval = 100
	}
	cfg := soc.DefaultAIConfig()
	if scale == Quick {
		cfg = soc.QuickAIConfig()
	}
	a := soc.BuildAIProcessor(cfg)
	reg := metrics.New(interval)
	a.Net.EnableMetrics(reg)
	a.Net.Tracer = trace.New(observedTraceCap)

	cycles := scale.cycles(3000, 20000)
	a.Run(int(cycles))
	return ObservedRun{
		Snapshot: reg.Snapshot(a.Net.Name(), uint64(cycles)),
		Tracer:   a.Net.Tracer,
		Cycles:   uint64(cycles),
	}
}
