package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. The tables below are
// the single source: -benchmark-json renders the file from them and the
// smoke test fails when the committed file differs.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// endToEnd are the numbers a user of the simulator sees. Every workload
// reports every one of them (the result line must carry all of them), so
// each is defined over a workload's own op and work unit; README.md has
// the table. All are host time or host memory, never simulated time.
var endToEnd = []metricDef{
	{"op_ms_best", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"alloc_mb_per_op", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer numbers of the traced run; layer names
// are the simulator's module names. A workload reports 0 for a layer it
// does not exercise.
var perLayer = buildPerLayer()

var perLayerUnit = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// servingLoads is serve-sweep's offered-load sweep (requests/kcycle).
var servingLoads = []int{1, 2, 4, 8, 16, 24}

// artifactNames is the paper-artifact catalog as the simulator names it;
// the workload checks at set-up that the simulator still agrees.
var artifactNames = []string{
	"table5", "fig10", "fig11", "fig12", "fig13", "table6",
	"table7+fig14+table8", "scaleup", "area", "fabrics", "replay",
	"ablations", "resilience",
}

// metricSafe maps a catalog name onto the metric-name alphabet.
func metricSafe(s string) string { return strings.ReplaceAll(s, "+", "_") }

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// soc: building a system.
	add("lower", "ms", "soc.build_ms")
	// noc: the tick engine, host time per simulated event.
	add("lower", "ns", "noc.run_ns_per_cycle", "noc.run_ns_per_hop", "noc.idle_ns_per_cycle")
	add("lower", "ratio", "noc.first_segment_ratio")
	add("lower", "us", "noc.run_call_overhead_us")
	// noc: the partitioned engine.
	add("higher", "count", "noc.partitions_effective")
	add("lower", "count", "noc.epochs", "noc.barrier_syncs")
	add("higher", "cycles", "noc.cycles_per_epoch")
	add("higher", "ratio", "noc.par_speedup")
	// noc: simulated statistics. They must never move; direction is
	// nominal.
	add("higher", "count", "noc.flits_delivered", "noc.injected")
	add("lower", "count", "noc.deflections", "noc.hops")
	// serving.
	for _, l := range servingLoads {
		add("lower", "s", fmt.Sprintf("serving.point_s.load-%d", l))
	}
	add("lower", "ms", "serving.build_ms")
	add("higher", "count", "serving.requests_completed")
	add("lower", "cycles", "serving.stall_cycles")
	add("higher", "1/s", "serving.requests_per_host_s")
	// checkpoints: noc/sim snapshot codec and the RunSim paths over it.
	add("lower", "ms", "noc.ckpt_encode_ms", "noc.ckpt_decode_ms")
	add("lower", "bytes", "noc.ckpt_bytes_first", "noc.ckpt_bytes_last")
	add("lower", "bytes", "sim.ckpt_bytes_per_kcycle")
	add("higher", "MB/s", "sim.ckpt_encode_mb_per_s")
	add("lower", "ratio", "ckpt.overhead_ratio")
	add("lower", "ms", "ckpt.resume_ms_p50")
	// experiments: the harness around the simulations.
	for _, a := range artifactNames {
		add("lower", "s", "experiments.artifact_s."+metricSafe(a))
	}
	add("lower", "s", "experiments.artifact_pass_s", "experiments.runsim_plain_s")
	add("lower", "us", "experiments.normalize_us")
	add("higher", "ratio", "experiments.runner_speedup")
	// stats.
	add("lower", "ns", "stats.sketch_observe_ns", "stats.histogram_record_ns")
	add("lower", "us", "stats.histogram_percentile_us")
	// nocd as its clients see it, by phase.
	add("lower", "ms", "nocd.cold_ms_p50", "nocd.cold_ms_p75", "nocd.warm_ms_p50", "nocd.warm_ms_p99", "nocd.coalesced_ms_p50")
	add("higher", "1/s", "nocd.jobs_per_s")
	// server.
	add("lower", "us", "server.parse_us", "server.jobkey_us", "server.submit_us", "server.result_get_us", "server.decode_cached_us")
	add("lower", "count", "server.polls_per_job", "server.runs", "server.cache_misses")
	add("higher", "count", "server.cache_hits", "server.coalesced")
	add("lower", "ms", "server.shutdown_ms", "server.recover_ms")
	// artifact, durable, config.
	add("lower", "us", "artifact.put_us", "artifact.get_mem_us", "artifact.get_disk_us")
	add("higher", "ratio", "artifact.mem_resident_share")
	add("lower", "count", "artifact.evictions")
	add("lower", "us", "durable.writefile_us.4k", "durable.writefile_us.4m")
	add("lower", "ms", "config.parse_build_ms")
	// observability overheads on one quad-die op.
	add("lower", "ratio", "metrics.overhead_ratio", "trace.overhead_ratio")
	// where the CPU went, by module, from a CPU profile.
	for _, m := range cpuModules {
		add("lower", "%", "cpu_share."+m)
	}
	// the benchmark's own tracing.
	add("lower", "ratio", "bench.trace_overhead_ratio")
	return out
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bounds: the field is omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
