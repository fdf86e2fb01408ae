// Open-loop serving sweeps: the tail-latency-vs-offered-load experiment
// the closed-loop replays cannot express. One independent simulation per
// load point fans out over the worker pool (index-keyed results, so any
// worker count produces identical bytes), each recording per-request
// end-to-end latency into the streaming quantile sketch; the sweep rows
// render as CSV with a saturation-knee marker.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"chipletnoc/internal/config"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/stats"
)

// ServingPoint is one load point's row.
type ServingPoint struct {
	// Load is the offered rate in requests per 1000 cycles.
	Load float64 `json:"load"`
	// Admitted / Completed / Backlog count requests: the open-loop
	// arrivals, the ones that finished inside the window, and the debt
	// left at the end.
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Backlog   uint64 `json:"backlog"`
	// StallCycles counts cycles the watermark held pending requests back.
	StallCycles uint64 `json:"stall_cycles"`
	// End-to-end latency quantiles (cycles) over completed requests.
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	// Digest fingerprints the point's full completion stream and latency
	// population — the golden-determinism hook.
	Digest string `json:"digest"`
}

// ServingResult is one sweep: spec document, per-load rows and the
// detected saturation knee.
type ServingResult struct {
	// Doc is the canonical serving-spec document the sweep ran.
	Doc string `json:"doc"`
	// Points holds one row per offered load, in spec order.
	Points []ServingPoint `json:"points"`
	// KneeLoad is the first offered load where the fabric stopped
	// keeping up (completions fell >25% behind admissions, or p99 blew
	// past 4x the lightest load's); 0 means no knee inside the sweep.
	KneeLoad float64 `json:"knee_load,omitempty"`
}

// NormalizeServingDoc parses a serving-spec document (empty means all
// defaults), applies the scale's defaults, drops the inert partitions and
// lookahead keys and re-renders it canonically. Every admission path —
// CLI and daemon — goes through here, so the two agree byte-for-byte on
// what a submission means.
func NormalizeServingDoc(doc string, scale Scale) (string, *config.ServingSpec, error) {
	if strings.TrimSpace(doc) == "" {
		doc = "{}"
	}
	spec, err := config.ParseServingSpec([]byte(doc))
	if err != nil {
		return "", nil, err
	}
	spec.ApplyDefaults(scale == Quick)
	spec.Partitions, spec.Lookahead = 0, 0
	if err := spec.Validate(); err != nil {
		return "", nil, fmt.Errorf("serving spec invalid after defaults: %w", err)
	}
	canonical, err := config.CanonicalServingDoc(spec)
	if err != nil {
		return "", nil, err
	}
	return canonical, spec, nil
}

// RunServingDoc normalizes and runs a serving sweep from a document.
func RunServingDoc(doc string, scale Scale) (*ServingResult, error) {
	canonical, spec, err := NormalizeServingDoc(doc, scale)
	if err != nil {
		return nil, err
	}
	res := RunServing(spec)
	res.Doc = canonical
	return res, nil
}

// RunServing executes the sweep for a defaulted spec: one job per load
// point on the worker pool. Each point builds its own network seeded
// from (spec.Seed, point), so results are a pure function of the spec —
// bit-identical at any worker count.
func RunServing(spec *config.ServingSpec) *ServingResult {
	points := RunIndexed("serving", len(spec.Loads),
		func(i int) string { return fmt.Sprintf("serving/load-%s", csvFloat(spec.Loads[i])) },
		func(i int) ServingPoint { return runServingPoint(spec, i) })
	res := &ServingResult{Points: points}
	res.KneeLoad = detectKnee(points)
	return res
}

// runServingPoint runs one load point.
func runServingPoint(spec *config.ServingSpec, point int) ServingPoint {
	sys, err := serving.Build(spec, point)
	if err != nil {
		// RunServing's callers normalized the spec; a build failure here
		// is a programming error, not an input error.
		panic(fmt.Sprintf("serving: build failed for normalized spec: %v", err))
	}
	sys.Run()
	return servingRow(sys)
}

// servingRow is the row of a system that has run its window.
func servingRow(sys *serving.System) ServingPoint {
	o := sys.Orch
	return ServingPoint{
		Load:        sys.Load,
		Admitted:    o.Admitted,
		Completed:   o.Completed,
		Backlog:     o.Backlog(),
		StallCycles: o.StallCycles(),
		P50:         o.Sketch.Quantile(0.50),
		P90:         o.Sketch.Quantile(0.90),
		P99:         o.Sketch.Quantile(0.99),
		P999:        o.Sketch.Quantile(0.999),
		Mean:        o.Sketch.Mean(),
		Max:         float64(o.Sketch.Max()),
		Digest:      pointDigest(o),
	}
}

// pointDigest folds the completion-stream digest and the latency-sketch
// digest into one hex fingerprint.
func pointDigest(o *serving.Orchestrator) string {
	h := sim.FNV1aFoldU64(o.StreamDigest(), o.Sketch.Digest())
	return fmt.Sprintf("%016x", sim.FNV1aFoldU64(h, o.Admitted))
}

// detectKnee finds the saturation knee: the first load where the system
// visibly stops keeping up. Two deterministic tests: completions fell
// more than 25% behind admissions (open-loop windows always truncate a
// tail of in-flight requests, so a tighter ratio would flag healthy
// loads), or p99 exceeded 4x the lightest load's p99.
func detectKnee(points []ServingPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	base := points[0].P99
	for _, p := range points {
		if p.Admitted > 0 && p.Completed*4 < p.Admitted*3 {
			return p.Load
		}
		if base > 0 && p.P99 > 4*base {
			return p.Load
		}
	}
	return 0
}

// CSV renders the sweep: one row per load, a saturated flag once the
// knee is passed. Floats use shortest-exact form, so equal results are
// equal bytes.
func (r *ServingResult) CSV() string {
	var b strings.Builder
	b.WriteString("load,admitted,completed,backlog,stall_cycles,p50,p90,p99,p999,mean,max,saturated,digest\n")
	for _, p := range r.Points {
		saturated := 0
		if r.KneeLoad > 0 && p.Load >= r.KneeLoad {
			saturated = 1
		}
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%d,%s\n",
			csvFloat(p.Load), p.Admitted, p.Completed, p.Backlog, p.StallCycles,
			csvFloat(p.P50), csvFloat(p.P90), csvFloat(p.P99), csvFloat(p.P999),
			csvFloat(p.Mean), csvFloat(p.Max), saturated, p.Digest)
	}
	return b.String()
}

// Render returns the human-readable sweep report.
func (r *ServingResult) Render() string {
	t := stats.NewTable("load/kcyc", "admitted", "completed", "backlog", "stalls", "p50", "p90", "p99", "p99.9", "max")
	for _, p := range r.Points {
		t.AddRow(csvFloat(p.Load), strconv.FormatUint(p.Admitted, 10), strconv.FormatUint(p.Completed, 10),
			strconv.FormatUint(p.Backlog, 10), strconv.FormatUint(p.StallCycles, 10),
			p.P50, p.P90, p.P99, p.P999, p.Max)
	}
	var b strings.Builder
	b.WriteString("Open-loop serving sweep (latencies in cycles)\n")
	b.WriteString(t.String())
	if r.KneeLoad > 0 {
		fmt.Fprintf(&b, "saturation knee at %s requests/kcycle\n", csvFloat(r.KneeLoad))
	} else {
		b.WriteString("no saturation knee inside the sweep\n")
	}
	return b.String()
}
