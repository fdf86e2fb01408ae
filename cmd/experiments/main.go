// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs everything at full scale — the
// run EXPERIMENTS.md records; use -exp to select one and -quick for a
// fast pass. -exp simrun runs a single parameterized simulation with
// optional checkpoint/resume; the nocd daemon serves the same catalog
// over HTTP through the identical code paths.
package main

import (
	"flag"
	"fmt"
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
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: all|simrun|serving|"+strings.Join(experiments.ExperimentNames(), "|"))
	quick := flag.Bool("quick", false, "quick scale (smaller systems, shorter windows)")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for independent sub-simulations; 1 reproduces the sequential run")
	timing := flag.Bool("timing", false, "print per-job wall-clock detail after each experiment")
	metricsOn := flag.Bool("metrics", false, "also run the instrumented AI-Processor reference and write its metrics snapshot")
	metricsOut := flag.String("metrics-out", "metrics.json", "metrics snapshot output file (JSON) when -metrics is set")
	metricsInterval := flag.Uint64("metrics-interval", 100, "cycles between series samples for the instrumented reference run")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace-event JSON of the instrumented AI-Processor reference run to this file")
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
		fmt.Printf("[timing]   engine: %d cycles, %d jumped (%.1f%%); ring ticks skipped %.1f%%, station ticks skipped %.1f%%, device ticks skipped %.1f%%\n",
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
				fmt.Printf("[timing]     %-22s %6d devices: %10d ticks run, %11d skipped (%.1f%%)\n",
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
		fmt.Printf("[timing] %s: wall %v, %d jobs totalling %v serial (%d workers, %.2fx)\n",
			name, wall.Round(time.Millisecond), jobs, serial.Round(time.Millisecond),
			*parallel, float64(serial)/float64(wall))
		if *timing {
			reportEngine(engine, kinds)
			sort.Slice(all, func(i, j int) bool { return all[i].Wall > all[j].Wall })
			for _, j := range all {
				fmt.Printf("[timing]   %-40s %v\n", j.Name, j.Wall.Round(time.Millisecond))
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
		if err := runSim(scale, *simTopology, *simConfig, *simCycles, *simSeed,
			*checkpointEvery, *checkpointFile, *resumeFile, *cacheDir, writeCSV); err != nil {
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

	// The experiments keep instrumentation off so their numbers stay
	// bit-identical to the golden runs; observability artifacts come from
	// a separate fixed-seed instrumented reference run of the AI die.
	if *metricsOn || *traceChrome != "" {
		if err := writeObserved(scale, *metricsOn, *metricsOut, *metricsInterval, *traceChrome); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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

// runSim executes one parameterized simulation, with optional rolling
// checkpoints to a file and resume from one.
func runSim(scale experiments.Scale, topology, configFile string, cycles, seed, checkpointEvery uint64,
	checkpointFile, resumeFile, cacheDir string, writeCSV func(name, data string)) error {
	spec := experiments.SimSpec{
		Topology:        topology,
		Scale:           experiments.ScaleName(scale),
		Cycles:          cycles,
		Seed:            seed,
		CheckpointEvery: checkpointEvery,
	}
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
	var ctl *experiments.SimControl
	if checkpointFile != "" && checkpointEvery > 0 {
		ctl = &experiments.SimControl{OnCheckpoint: func(data []byte, cycle uint64) error {
			// The durable layer stages, fsyncs and renames, so a crash at
			// any instant leaves the previous complete checkpoint (or the
			// new complete one) — never a torn file.
			if err := durable.WriteFile(checkpointFile, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("checkpoint: cycle %d -> %s (%d bytes)\n", cycle, checkpointFile, len(data))
			return nil
		}}
	}
	res, err := runCached(cacheDir, server.JobSpec{Kind: "sim", Sim: &spec}, resume, ctl)
	if err != nil {
		return err
	}
	fmt.Println(res.Sim.Render())
	writeCSV("simrun.csv", res.Sim.CSV())
	return nil
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

// writeObserved runs the instrumented AI-Processor reference and writes
// the requested artifacts.
func writeObserved(scale experiments.Scale, metricsOn bool, metricsOut string, interval uint64, traceChrome string) error {
	obs := experiments.RunObservedAI(scale, interval)
	if metricsOn {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := obs.Snapshot.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: wrote %s (instrumented AI reference, %d cycles)\n", metricsOut, obs.Cycles)
	}
	if traceChrome != "" {
		f, err := os.Create(traceChrome)
		if err != nil {
			return err
		}
		if err := obs.Tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace:   wrote %s (%d events retained) — load in https://ui.perfetto.dev\n",
			traceChrome, obs.Tracer.Len())
	}
	return nil
}
