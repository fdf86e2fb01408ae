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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof (profiles + runtime/trace)
	"os"
	"sort"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/config"
	"chipletnoc/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns 1 when a -config run fails and 2 on misuse.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fabricName := fs.String("fabric", "multiring", "multiring|halfring|chiplets|mesh|ring|hub")
	configPath := fs.String("config", "", "JSON topology file (overrides -fabric; see internal/config)")
	cycles := fs.Int("cycles", 20000, "cycles to run a -config system")
	describe := fs.Bool("describe", false, "print the -config topology before running")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof (profiles + runtime/trace) on this address, e.g. localhost:6060")
	nodes := fs.Int("nodes", 16, "endpoint count")
	dies := fs.Int("dies", 2, "dies (chiplets/hub fabrics)")
	rate := fs.Float64("rate", 0.05, "injection probability per node per cycle")
	sweep := fs.Bool("sweep", false, "sweep rates and report the latency curve and knee")
	payload := fs.Int("payload", 64, "payload bytes per packet")
	warmup := fs.Uint64("warmup", 2000, "warmup cycles")
	window := fs.Uint64("window", 10000, "measurement cycles")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof: serving http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *configPath != "" {
		if err := runConfig(stdout, *configPath, *cycles, *describe); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	factory, err := fabricFactory(*fabricName, *nodes, *dies)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if !*sweep {
		p := baseline.MeasureUniform(factory(), *rate, *payload, *warmup, *window, *seed)
		fmt.Fprintf(stdout, "fabric=%s nodes=%d rate=%.3f\n", factory().Name(), *nodes, *rate)
		fmt.Fprintf(stdout, "throughput: %.4f pkt/node/cycle\n", p.Throughput)
		fmt.Fprintf(stdout, "latency:    mean %.1f cycles, p99 %.1f\n", p.MeanLatency, p.P99)
		if p.Saturated {
			fmt.Fprintln(stdout, "status:     SATURATED (offered load exceeds capacity)")
		}
		return 0
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
	fmt.Fprintf(stdout, "fabric=%s nodes=%d\n%s", factory().Name(), *nodes, t.String())
	fmt.Fprintf(stdout, "knee (2x zero-load latency): rate %.2f\n", baseline.Knee(points, 2))
	return 0
}

// runConfig builds and runs a JSON-defined system, reporting per-device
// statistics. The spec is the one input: its fault schedule and its
// requesters' CHI retry knobs come from the file. To observe the run, use
// experiments -exp simrun -sim-topology custom -sim-config FILE with
// -metrics-out and -trace-chrome.
func runConfig(stdout io.Writer, path string, cycles int, describe bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := config.Parse(data)
	if err != nil {
		return err
	}
	sys, err := spec.Build()
	if err != nil {
		return err
	}
	if describe {
		var b bytes.Buffer
		_ = json.Indent(&b, sys.Net.Describe(), "", "  ") // Describe is valid JSON
		b.WriteByte('\n')
		stdout.Write(b.Bytes())
	}
	sys.Run(cycles)

	fmt.Fprintf(stdout, "system %s after %d cycles:\n", spec.Name, cycles)
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
	fmt.Fprint(stdout, t.String())
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
	fmt.Fprint(stdout, t2.String())
	fmt.Fprintf(stdout, "network: injected=%d delivered=%d deflections=%d\n",
		sys.Net.InjectedFlits, sys.Net.DeliveredFlits, sys.Net.Deflections)
	if !spec.Faults.Empty() {
		fmt.Fprintf(stdout, "faults:  applied=%d skipped=%d dropped=%d (watchdog=%d unroutable=%d fault=%d corrupt=%d) rerouted=%d\n",
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
		fmt.Fprintf(stdout, "chi:     retried=%d aborted=%d\n", retried, aborted)
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
