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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns 1 when a run fails and 2 on misuse.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all",
		"experiment: all|simrun|serving|"+strings.Join(experiments.ExperimentNames(), "|"))
	quick := fs.Bool("quick", false, "quick scale (smaller systems, shorter windows)")
	csvDir := fs.String("csv", "", "also write figure data as CSV files into this directory")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"worker goroutines for independent sub-simulations; 1 reproduces the sequential run")
	timing := fs.Bool("timing", false, "print per-job wall-clock detail and the engine report to stderr after each experiment")
	metricsOut := fs.String("metrics-out", "", "simrun: write the run's metrics snapshot (JSON) to this file (empty = off)")
	metricsInterval := fs.Uint64("metrics-interval", 100, "simrun: cycles between series samples when -metrics-out is set")
	traceChrome := fs.String("trace-chrome", "", "simrun: write a Chrome trace-event JSON of the run to this file (bypasses -cache-dir)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof (profiles + runtime/trace) on this address, e.g. localhost:6060")
	simTopology := fs.String("sim-topology", "ai-processor", "simrun: topology (ai-processor, server-cpu or custom)")
	simConfig := fs.String("sim-config", "", "simrun: config JSON file for -sim-topology custom")
	simCycles := fs.Uint64("sim-cycles", 0, "simrun: cycle budget (0 = scale default)")
	simSeed := fs.Uint64("sim-seed", 0, "simrun: RNG seed (0 = the golden-digest streams)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "simrun: checkpoint every N cycles (0 = off)")
	checkpointFile := fs.String("checkpoint", "", "simrun: rolling checkpoint file (written atomically each interval)")
	resumeFile := fs.String("resume", "", "simrun: resume from this checkpoint file instead of starting fresh")
	cacheDir := fs.String("cache-dir", "", "simrun/serving: content-addressed result cache directory (shareable with a nocd -cache-dir); a hit skips the simulation and replays identical bytes")
	servingSpec := fs.String("serving-spec", "", "serving: spec JSON file describing the open-loop sweep (empty = the default MoE workload)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if (*metricsOut != "" || *traceChrome != "") && *exp != "simrun" {
		fmt.Fprintln(stderr, "experiments: -metrics-out and -trace-chrome observe a run and apply only to -exp simrun")
		return 2
	}
	if *metricsOut != "" && *metricsInterval == 0 {
		fmt.Fprintln(stderr, "experiments: -metrics-interval must be positive")
		return 2
	}
	experiments.SetParallelism(*parallel)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof: serving http://%s/debug/pprof/\n", *pprofAddr)
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	c := &cli{stdout: stdout, stderr: stderr, csvDir: *csvDir}

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
		fmt.Fprintf(stderr, "[timing]   engine: %d cycles, %d jumped (%.1f%%); ring ticks skipped %.1f%%, station ticks skipped %.1f%%, device ticks skipped %.1f%%\n",
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
				fmt.Fprintf(stderr, "[timing]     %-22s %6d devices: %10d ticks run, %11d skipped (%.1f%%)\n",
					k.Kind, k.Devices-b.Devices, ticks, skipped, pct(skipped, ticks+skipped))
			}
		}
	}

	// invoke runs one named experiment through the shared catalog — the
	// exact dispatch the nocd daemon uses — writes its artifacts, and
	// reports where its wall clock went: the serial-equivalent time is
	// the sum of per-job wall clocks, so wall vs serial shows the speedup
	// the worker pool delivered.
	invoke := func(name string) error {
		start := time.Now()
		engine, kinds := noc.EngineTotals(), noc.DeviceTickTotals()
		a, err := experiments.RunExperiment(name, scale)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, a.Text)
		for _, f := range a.Files() {
			c.writeCSV(f, a.CSVs[f])
		}
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
			return nil
		}
		fmt.Fprintf(stderr, "[timing] %s: wall %v, %d jobs totalling %v serial (%d workers, %.2fx)\n",
			name, wall.Round(time.Millisecond), jobs, serial.Round(time.Millisecond),
			*parallel, float64(serial)/float64(wall))
		if *timing {
			reportEngine(engine, kinds)
			sort.Slice(all, func(i, j int) bool { return all[i].Wall > all[j].Wall })
			for _, j := range all {
				fmt.Fprintf(stderr, "[timing]   %-40s %v\n", j.Name, j.Wall.Round(time.Millisecond))
			}
		}
		return nil
	}

	engineStart, kindsStart := noc.EngineTotals(), noc.DeviceTickTotals()
	switch *exp {
	case "all":
		for _, name := range experiments.ExperimentNames() {
			_ = invoke(name) // a catalog name always runs
		}
	case "simrun", "serving":
		var err error
		if *exp == "simrun" {
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
			err = c.runSim(spec, *simConfig, *checkpointFile, *resumeFile, *cacheDir, *metricsOut, *traceChrome)
		} else {
			err = c.runServing(scale, *servingSpec, *cacheDir)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *timing {
			reportEngine(engineStart, kindsStart)
		}
	default:
		if err := invoke(*exp); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return 0
}

// cli is one invocation's output streams and -csv directory.
type cli struct {
	stdout, stderr io.Writer
	csvDir         string
}

// writeCSV writes one figure's data into the -csv directory, if any.
func (c *cli) writeCSV(name, data string) {
	if c.csvDir == "" || data == "" {
		return
	}
	path := filepath.Join(c.csvDir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		fmt.Fprintf(c.stderr, "csv: %v\n", err)
		return
	}
	fmt.Fprintf(c.stdout, "wrote %s\n", path)
}

// runCached runs one simrun or serving job through the job kinds the
// daemon uses, so CLI and service results are byte-identical. With
// -cache-dir it goes through the same content-addressed store (same
// keys, same payloads, so the two can share a directory): a hit replays
// the stored result without simulating, a completed run is stored for
// next time. All cache chatter goes to stderr; stdout carries exactly
// the bytes a cold run would print.
func (c *cli) runCached(cacheDir string, spec server.JobSpec, resume []byte, ctl *experiments.SimControl) (*server.Result, error) {
	var store *artifact.Store
	if cacheDir != "" {
		var err error
		if store, err = artifact.Open(artifact.Config{Dir: cacheDir}); err != nil {
			fmt.Fprintf(c.stderr, "cache: disabled: %v\n", err)
		}
	}
	return server.RunCached(store, spec, resume, ctl, func(format string, args ...interface{}) {
		fmt.Fprintf(c.stderr, "cache: "+format+"\n", args...)
	})
}

// traceCap bounds the -trace-chrome ring buffer: a long run retains its
// tail (the steady state), a short one fits entirely.
const traceCap = 1 << 17

// runSim executes one parameterized simulation, with optional rolling
// checkpoints to a file and resume from one, and writes the run's metrics
// snapshot and Chrome trace when asked.
func (c *cli) runSim(spec experiments.SimSpec, configFile, checkpointFile, resumeFile, cacheDir,
	metricsOut, traceChrome string) error {
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
			fmt.Fprintf(c.stdout, "checkpoint: cycle %d -> %s (%d bytes)\n", cycle, checkpointFile, len(data))
			return nil
		}
	}
	if traceChrome != "" {
		// A cached result carries no trace, so a traced run always runs.
		ctl.Tracer = trace.New(traceCap)
		if cacheDir != "" {
			fmt.Fprintln(c.stderr, "cache: skipped: a traced run always simulates")
			cacheDir = ""
		}
	}
	res, err := c.runCached(cacheDir, server.JobSpec{Kind: "sim", Sim: &spec}, resume, ctl)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, res.Sim.Render())
	c.writeCSV("simrun.csv", res.Sim.CSV())
	if metricsOut != "" {
		if err := writeFile(metricsOut, res.Sim.Metrics.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "metrics: wrote %s (%d cycles)\n", metricsOut, res.Sim.Metrics.Cycles)
	}
	if traceChrome != "" {
		if err := writeFile(traceChrome, ctl.Tracer.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "trace:   wrote %s (%d events retained of %d recorded) — load in https://ui.perfetto.dev\n",
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
func (c *cli) runServing(scale experiments.Scale, specFile, cacheDir string) error {
	var doc []byte
	if specFile != "" {
		var err error
		if doc, err = os.ReadFile(specFile); err != nil {
			return err
		}
	}
	res, err := c.runCached(cacheDir, server.JobSpec{Kind: "serving", Scale: experiments.ScaleName(scale), Serving: doc}, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, res.Serving.Render())
	c.writeCSV("serving.csv", res.Serving.CSV())
	return nil
}
