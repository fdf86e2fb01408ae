// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs everything at full scale — the
// run EXPERIMENTS.md records; use -exp to select one and -quick for a
// fast pass. -exp simrun runs a single parameterized simulation with
// optional checkpoint/resume, and is the one run -metrics-out and
// -trace-chrome observe; the nocd daemon serves the same catalog over
// HTTP through the identical code paths.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof (profiles + runtime/trace)
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/durable"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/server"
	"chipletnoc/internal/trace"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: all|simrun|serving|"+strings.Join(experiments.ExperimentNames(), "|"))
	quick := flag.Bool("quick", false, "quick scale (smaller systems, shorter windows)")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for independent sub-simulations; 1 reproduces the sequential run")
	timing := flag.Bool("timing", false, "print per-job wall-clock detail and the engine report to stderr after each experiment")
	metricsOut := flag.String("metrics-out", "", "simrun: write the run's metrics snapshot (JSON) to this file (empty = off)")
	metricsInterval := flag.Uint64("metrics-interval", 100, "simrun: cycles between series samples when -metrics-out is set")
	traceChrome := flag.String("trace-chrome", "", "simrun: write a Chrome trace-event JSON of the run to this file (bypasses -cache-dir)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (profiles + runtime/trace) on this address, e.g. localhost:6060")
	simTopology := flag.String("sim-topology", "ai-processor", "simrun: topology (ai-processor, server-cpu or custom)")
	simConfig := flag.String("sim-config", "", "simrun: config JSON file for -sim-topology custom")
	simCycles := flag.Uint64("sim-cycles", 0, "simrun: cycle budget (0 = scale default)")
	simSeed := flag.Uint64("sim-seed", 0, "simrun: RNG seed (0 = the golden-digest streams)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "simrun: checkpoint every N cycles (0 = off)")
	checkpointFile := flag.String("checkpoint", "", "simrun: rolling checkpoint file (written atomically each interval)")
	resumeFile := flag.String("resume", "", "simrun: resume from this checkpoint file instead of starting fresh")
	cacheDir := flag.String("cache-dir", "", "simrun/serving: content-addressed result cache directory (shareable with a nocd -cache-dir); a hit skips the simulation and replays identical bytes")
	servingSpec := flag.String("serving-spec", "", "serving: spec JSON file describing the open-loop sweep (empty = the default MoE workload)")
	flag.Parse()

	if (*metricsOut != "" || *traceChrome != "") && *exp != "simrun" {
		fmt.Fprintln(os.Stderr, "experiments: -metrics-out and -trace-chrome observe a run and apply only to -exp simrun")
		os.Exit(2)
	}
	if *metricsOut != "" && *metricsInterval == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -metrics-interval must be positive")
		os.Exit(2)
	}
	experiments.SetParallelism(*parallel)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Printf("pprof: serving http://%s/debug/pprof/\n", *pprofAddr)
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	writeCSV := func(name, data string) {
		if *csvDir == "" || data == "" {
			return
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	}

	// reportEngine says why a run cost what it did: what the activity
	// gate skipped, summed over every Network.Run call since the two
	// readings were taken, and which kinds of device the device loop ticked.
	reportEngine := func(engine noc.EngineStats, kinds []noc.KindTicks) {
		pct := func(part, whole uint64) float64 {
			if whole == 0 {
				return 0
			}
			return 100 * float64(part) / float64(whole)
		}
		engine = noc.EngineTotals().Sub(engine)
		fmt.Fprintf(os.Stderr, "[timing]   engine: %d cycles, %d jumped (%.1f%%); ring ticks skipped %.1f%%, station ticks skipped %.1f%%, device ticks skipped %.1f%%\n",
			engine.Cycles, engine.SkippedCycles, pct(engine.SkippedCycles, engine.Cycles),
			pct(engine.RingTicksSkipped, engine.RingTicks), pct(engine.StationTicksSkipped, engine.StationTicks),
			pct(engine.DeviceTicksSkipped, engine.DeviceTicks))
		before := map[string]noc.KindTicks{}
		for _, k := range kinds {
			before[k.Kind] = k
		}
		for _, k := range noc.DeviceTickTotals() {
			b := before[k.Kind]
			if ticks, skipped := k.Ticks-b.Ticks, k.Skipped-b.Skipped; ticks+skipped > 0 {
				fmt.Fprintf(os.Stderr, "[timing]     %-22s %6d devices: %10d ticks run, %11d skipped (%.1f%%)\n",
					k.Kind, k.Devices-b.Devices, ticks, skipped, pct(skipped, ticks+skipped))
			}
		}
	}

	// invoke runs one artifact and reports where its wall clock went:
	// the serial-equivalent time is the sum of per-job wall clocks, so
	// wall vs serial shows the speedup the worker pool delivered.
	invoke := func(name string, run func()) {
		start := time.Now()
		engine, kinds := noc.EngineTotals(), noc.DeviceTickTotals()
		run()
		wall := time.Since(start)
		var jobs int
		var serial time.Duration
		var all []experiments.JobTiming
		for _, e := range experiments.DrainTimings() {
			jobs += len(e.Jobs)
			serial += e.SerialWall()
			all = append(all, e.Jobs...)
		}
		if jobs == 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "[timing] %s: wall %v, %d jobs totalling %v serial (%d workers, %.2fx)\n",
			name, wall.Round(time.Millisecond), jobs, serial.Round(time.Millisecond),
			*parallel, float64(serial)/float64(wall))
		if *timing {
			reportEngine(engine, kinds)
			sort.Slice(all, func(i, j int) bool { return all[i].Wall > all[j].Wall })
			for _, j := range all {
				fmt.Fprintf(os.Stderr, "[timing]   %-40s %v\n", j.Name, j.Wall.Round(time.Millisecond))
			}
		}
	}

	// catalog runs one named experiment through the shared catalog — the
	// exact dispatch the nocd daemon uses — and writes its artifacts.
	catalog := func(name string) {
		a, err := experiments.RunExperiment(name, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(a.Text)
		files := make([]string, 0, len(a.CSVs))
		for f := range a.CSVs {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			writeCSV(f, a.CSVs[f])
		}
	}

	engineStart, kindsStart := noc.EngineTotals(), noc.DeviceTickTotals()
	switch *exp {
	case "all":
		for _, k := range experiments.ExperimentNames() {
			name := k
			invoke(name, func() { catalog(name) })
		}
	case "simrun":
		spec := experiments.SimSpec{
			Topology:        *simTopology,
			Scale:           experiments.ScaleName(scale),
			Cycles:          *simCycles,
			Seed:            *simSeed,
			CheckpointEvery: *checkpointEvery,
		}
		if *metricsOut != "" {
			spec.MetricsInterval = *metricsInterval
		}
		if err := runSim(spec, *simConfig, *checkpointFile, *resumeFile, *cacheDir,
			*metricsOut, *traceChrome, writeCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *timing {
			reportEngine(engineStart, kindsStart)
		}
	case "serving":
		if err := runServing(scale, *servingSpec, *cacheDir, writeCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *timing {
			reportEngine(engineStart, kindsStart)
		}
	default:
		invoke(*exp, func() { catalog(*exp) })
	}
}

// runCached runs one simrun or serving job through the job kinds the
// daemon uses, so CLI and service results are byte-identical. With
// -cache-dir it goes through the same content-addressed store (same
// keys, same payloads, so the two can share a directory): a hit replays
// the stored result without simulating, a completed run is stored for
// next time. All cache chatter goes to stderr; stdout carries exactly
// the bytes a cold run would print.
func runCached(cacheDir string, spec server.JobSpec, resume []byte, ctl *experiments.SimControl) (*server.Result, error) {
	var store *artifact.Store
	if cacheDir != "" {
		var err error
		if store, err = artifact.Open(artifact.Config{Dir: cacheDir}); err != nil {
			fmt.Fprintf(os.Stderr, "cache: disabled: %v\n", err)
		}
	}
	return server.RunCached(store, spec, resume, ctl, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "cache: "+format+"\n", args...)
	})
}

// traceCap bounds the -trace-chrome ring buffer: a long run retains its
// tail (the steady state), a short one fits entirely.
const traceCap = 1 << 17

// runSim executes one parameterized simulation, with optional rolling
// checkpoints to a file and resume from one, and writes the run's metrics
// snapshot and Chrome trace when asked.
func runSim(spec experiments.SimSpec, configFile, checkpointFile, resumeFile, cacheDir,
	metricsOut, traceChrome string, writeCSV func(name, data string)) error {
	if configFile != "" {
		data, err := os.ReadFile(configFile)
		if err != nil {
			return err
		}
		spec.Config = string(data)
	}
	var resume []byte
	if resumeFile != "" {
		data, err := os.ReadFile(resumeFile)
		if err != nil {
			return err
		}
		resume = data
	}
	ctl := &experiments.SimControl{}
	if checkpointFile != "" && spec.CheckpointEvery > 0 {
		ctl.OnCheckpoint = func(data []byte, cycle uint64) error {
			// The durable layer stages, fsyncs and renames, so a crash at
			// any instant leaves the previous complete checkpoint (or the
			// new complete one) — never a torn file.
			if err := durable.WriteFile(checkpointFile, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("checkpoint: cycle %d -> %s (%d bytes)\n", cycle, checkpointFile, len(data))
			return nil
		}
	}
	if traceChrome != "" {
		// A cached result carries no trace, so a traced run always runs.
		ctl.Tracer = trace.New(traceCap)
		if cacheDir != "" {
			fmt.Fprintln(os.Stderr, "cache: skipped: a traced run always simulates")
			cacheDir = ""
		}
	}
	res, err := runCached(cacheDir, server.JobSpec{Kind: "sim", Sim: &spec}, resume, ctl)
	if err != nil {
		return err
	}
	fmt.Println(res.Sim.Render())
	writeCSV("simrun.csv", res.Sim.CSV())
	if metricsOut != "" {
		if err := writeFile(metricsOut, res.Sim.Metrics.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("metrics: wrote %s (%d cycles)\n", metricsOut, res.Sim.Metrics.Cycles)
	}
	if traceChrome != "" {
		if err := writeFile(traceChrome, ctl.Tracer.WriteChrome); err != nil {
			return err
		}
		fmt.Printf("trace:   wrote %s (%d events retained of %d recorded) — load in https://ui.perfetto.dev\n",
			traceChrome, ctl.Tracer.Len(), ctl.Tracer.Total)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runServing executes one open-loop serving sweep.
func runServing(scale experiments.Scale, specFile, cacheDir string, writeCSV func(name, data string)) error {
	var doc []byte
	if specFile != "" {
		var err error
		if doc, err = os.ReadFile(specFile); err != nil {
			return err
		}
	}
	res, err := runCached(cacheDir, server.JobSpec{Kind: "serving", Scale: experiments.ScaleName(scale), Serving: doc}, nil, nil)
	if err != nil {
		return err
	}
	fmt.Println(res.Serving.Render())
	writeCSV("serving.csv", res.Serving.CSV())
	return nil
}
