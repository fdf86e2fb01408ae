// Command nocsim is a generic interconnect load-sweep tool: pick a fabric
// organisation, an injection rate (or a sweep), and it reports latency
// and throughput under uniform-random traffic — the quickest way to
// explore how the bufferless multi-ring compares with buffered
// organisations at a given scale.
//
// Examples:
//
//	nocsim -fabric multiring -nodes 32 -rate 0.1
//	nocsim -fabric mesh -nodes 36 -sweep
//	nocsim -fabric chiplets -dies 2 -nodes 32 -sweep
//	nocsim -config my-soc.json -cycles 20000
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof (profiles + runtime/trace)
	"os"
	"sort"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/config"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/trace"
)

func main() {
	fabricName := flag.String("fabric", "multiring", "multiring|halfring|chiplets|mesh|ring|hub")
	configPath := flag.String("config", "", "JSON topology file (overrides -fabric; see internal/config)")
	cycles := flag.Int("cycles", 20000, "cycles to run a -config system")
	describe := flag.Bool("describe", false, "print the -config topology before running")
	faultsPath := flag.String("faults", "", "JSON fault-schedule file applied to a -config run (see internal/fault)")
	retryCycles := flag.Int("retry", 0, "arm CHI timeout/retry on every -config requester with this timeout (cycles); 0 disables")
	retryMax := flag.Int("retries", 3, "retry budget per transaction when -retry is set")
	metricsOn := flag.Bool("metrics", false, "attach the metrics registry to a -config run")
	metricsOut := flag.String("metrics-out", "metrics.json", "metrics snapshot output file (JSON) when -metrics is set")
	metricsInterval := flag.Uint64("metrics-interval", 100, "cycles between series samples when -metrics is set")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace-event (Perfetto-loadable) JSON of a -config run to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (profiles + runtime/trace) on this address, e.g. localhost:6060")
	nodes := flag.Int("nodes", 16, "endpoint count")
	dies := flag.Int("dies", 2, "dies (chiplets/hub fabrics)")
	rate := flag.Float64("rate", 0.05, "injection probability per node per cycle")
	sweep := flag.Bool("sweep", false, "sweep rates and report the latency curve and knee")
	payload := flag.Int("payload", 64, "payload bytes per packet")
	warmup := flag.Uint64("warmup", 2000, "warmup cycles")
	window := flag.Uint64("window", 10000, "measurement cycles")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Printf("pprof: serving http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *configPath != "" {
		obs := observeOpts{
			metricsOut:  *metricsOut,
			interval:    *metricsInterval,
			traceChrome: *traceChrome,
		}
		if !*metricsOn {
			obs.metricsOut = ""
		}
		if err := runConfig(*configPath, *faultsPath, *cycles, *describe, *retryCycles, *retryMax, obs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *metricsOn || *traceChrome != "" {
		fmt.Fprintln(os.Stderr, "nocsim: -metrics and -trace-chrome only apply to -config runs")
	}

	factory, err := fabricFactory(*fabricName, *nodes, *dies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if !*sweep {
		p := baseline.MeasureUniform(factory(), *rate, *payload, *warmup, *window, *seed)
		fmt.Printf("fabric=%s nodes=%d rate=%.3f\n", factory().Name(), *nodes, *rate)
		fmt.Printf("throughput: %.4f pkt/node/cycle\n", p.Throughput)
		fmt.Printf("latency:    mean %.1f cycles, p99 %.1f\n", p.MeanLatency, p.P99)
		if p.Saturated {
			fmt.Println("status:     SATURATED (offered load exceeds capacity)")
		}
		return
	}

	rates := []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}
	points := baseline.Sweep(factory, rates, *payload, *warmup, *window, *seed)
	t := stats.NewTable("rate", "throughput", "mean lat", "p99 lat", "saturated")
	for _, p := range points {
		sat := ""
		if p.Saturated {
			sat = "yes"
		}
		t.AddRow(fmt.Sprintf("%.2f", p.OfferedRate), fmt.Sprintf("%.4f", p.Throughput),
			fmt.Sprintf("%.1f", p.MeanLatency), fmt.Sprintf("%.1f", p.P99), sat)
	}
	fmt.Printf("fabric=%s nodes=%d\n%s", factory().Name(), *nodes, t.String())
	fmt.Printf("knee (2x zero-load latency): rate %.2f\n", baseline.Knee(points, 2))
}

// observeOpts carries the observability flags into a -config run. An
// empty metricsOut disables the registry; an empty traceChrome disables
// the structured tracer.
type observeOpts struct {
	metricsOut  string
	interval    uint64
	traceChrome string
}

// traceCap bounds the tracer ring buffer for -trace-chrome runs: long
// runs retain their tail (the steady state), short runs fit entirely.
const traceCap = 1 << 17

// runConfig builds and runs a JSON-defined system, reporting per-device
// statistics.
func runConfig(path, faultsPath string, cycles int, describe bool, retryCycles, retryMax int, obs observeOpts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := config.Parse(data)
	if err != nil {
		return err
	}
	if faultsPath != "" {
		fdata, err := os.ReadFile(faultsPath)
		if err != nil {
			return err
		}
		sched, err := fault.ParseSchedule(fdata)
		if err != nil {
			return err
		}
		spec.Faults = sched
	}
	if retryCycles > 0 {
		// The flag arms every requester that did not set its own knobs.
		for i := range spec.Devices {
			d := &spec.Devices[i]
			if d.Type == "requester" && d.RetryTimeout == 0 {
				d.RetryTimeout, d.RetryMax = retryCycles, retryMax
			}
		}
	}
	sys, err := spec.Build()
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if obs.metricsOut != "" {
		interval := obs.interval
		if interval == 0 {
			interval = 100
		}
		reg = metrics.New(interval)
		sys.Net.EnableMetrics(reg)
	}
	if obs.traceChrome != "" {
		sys.Net.Tracer = trace.New(traceCap)
	}
	if describe {
		fmt.Print(sys.Net.Describe())
	}
	sys.Run(cycles)
	if reg != nil {
		snap := reg.Snapshot(spec.Name, uint64(cycles))
		f, err := os.Create(obs.metricsOut)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: wrote %s (%d counters, %d gauges, %d series)\n",
			obs.metricsOut, len(snap.Counters), len(snap.Gauges), len(snap.Series))
	}
	if obs.traceChrome != "" {
		f, err := os.Create(obs.traceChrome)
		if err != nil {
			return err
		}
		if err := sys.Net.Tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace:   wrote %s (%d events retained of %d recorded) — load in https://ui.perfetto.dev\n",
			obs.traceChrome, sys.Net.Tracer.Len(), sys.Net.Tracer.Total)
	}

	fmt.Printf("system %s after %d cycles:\n", spec.Name, cycles)
	t := stats.NewTable("requester", "completed", "mean lat", "p99 lat", "bytes")
	names := make([]string, 0, len(sys.Requesters))
	for n := range sys.Requesters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := sys.Requesters[n]
		t.AddRow(n, r.Completed, fmt.Sprintf("%.1f", r.Latency.Mean()),
			fmt.Sprintf("%.1f", r.Latency.Percentile(99)), r.BytesMoved)
	}
	fmt.Print(t.String())
	t2 := stats.NewTable("memory", "reads", "writes", "bytes served")
	names = names[:0]
	for n := range sys.Memories {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := sys.Memories[n]
		t2.AddRow(n, m.Reads, m.Writes, m.BytesServed)
	}
	fmt.Print(t2.String())
	fmt.Printf("network: injected=%d delivered=%d deflections=%d\n",
		sys.Net.InjectedFlits, sys.Net.DeliveredFlits, sys.Net.Deflections)
	if !spec.Faults.Empty() {
		fmt.Printf("faults:  applied=%d skipped=%d dropped=%d (watchdog=%d unroutable=%d fault=%d corrupt=%d) rerouted=%d\n",
			sys.Injector.FaultsApplied, sys.Injector.FaultsSkipped, sys.Net.DroppedFlits,
			sys.Net.WatchdogDrops, sys.Net.UnroutableDrops, sys.Net.FaultDrops, sys.Net.CorruptDrops,
			sys.Net.ReroutedFlits)
	}
	var retried, aborted uint64
	for _, r := range sys.Requesters {
		rt, ab := r.RetryStats()
		retried += rt
		aborted += ab
	}
	if retried+aborted > 0 {
		fmt.Printf("chi:     retried=%d aborted=%d\n", retried, aborted)
	}
	return nil
}

func fabricFactory(name string, nodes, dies int) (func() baseline.Fabric, error) {
	switch name {
	case "multiring":
		return func() baseline.Fabric { return baseline.NewMultiRing(nodes, true) }, nil
	case "halfring":
		return func() baseline.Fabric { return baseline.NewMultiRing(nodes, false) }, nil
	case "chiplets":
		per := (nodes + dies - 1) / dies
		return func() baseline.Fabric { return baseline.NewMultiRingChiplets(dies, per) }, nil
	case "mesh":
		side := int(math.Ceil(math.Sqrt(float64(nodes))))
		return func() baseline.Fabric { return baseline.NewBufferedMesh(baseline.DefaultMeshConfig(side, side)) }, nil
	case "ring":
		return func() baseline.Fabric { return baseline.NewBufferedRing(baseline.DefaultRingConfig(nodes)) }, nil
	case "hub":
		per := (nodes + dies - 1) / dies
		return func() baseline.Fabric { return baseline.NewSwitchedHub(baseline.DefaultHubConfig(dies, per)) }, nil
	default:
		return nil, fmt.Errorf("nocsim: unknown fabric %q", name)
	}
}
