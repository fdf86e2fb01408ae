// Command bench is the repository's benchmark: six workloads over the
// chiplet NoC simulator, host-speed end-to-end metrics, per-layer
// attribution from a traced run, and an exact-repeat check of every
// simulated statistic. BENCHMARK.json at the repository root names it;
// README.md in this directory explains the workloads and the metrics.
//
//	bash bench/run.sh --workload quad-die-seq --seed 1 --seconds 10 --trace 0   one run, result line last
//	bash bench/run.sh --seed 1 --runs 10 --out bench/out/latest.json            every workload, one process per run
//	bash bench/run.sh --compare a.json b.json                                  regression table, exit 1 on "worse"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// workloads is the benchmark's workload list, in BENCHMARK.json order.
var workloads = []workloadDef{
	{
		name: "quad-die-seq", goldenKey: "quad-die", new: newQuadDie(1),
		why:  "four-die Server-CPU, saturating streams, one partition: every slot busy, so ring/station/bridge ticks and mem/traffic devices do all the work; bypasses idle skipping and the partitioned engine",
		work: "simulated kcycles", op: "one round of 16 simulations (own seeds): build the package, run 3000 cycles in 6 segments",
	},
	{
		name: "quad-die-par", goldenKey: "quad-die", new: newQuadDie(2),
		why:  "the same input at partitions=2: the only workload where the partition/superstep/shard code runs; must report the same simulated statistics as quad-die-seq",
		work: "simulated kcycles", op: "one round of 16 simulations (own seeds): build the package, run 3000 cycles in 6 segments",
	},
	{
		name: "serve-sweep", goldenKey: "serve-sweep", new: newServeSweep,
		why:  "open-loop MoE serving sweep, loads 1-24 req/kcycle, mostly below the knee: the fabric idles most cycles, and the serving orchestrator and quantile sketch are on the path; where idle skipping shows",
		work: "simulated kcycles", op: "one sweep of six load points x 100 000 cycles",
	},
	{
		name: "paper-artifacts", goldenKey: "paper-artifacts", new: newPaperArtifacts,
		why:  "the 13 Quick-scale paper artifacts, hundreds of short simulations: per-run fixed cost (build, route tables, pools, histogram sorts) dominates, steady-state tick speed matters least",
		work: "artifacts", op: "one pass over the 13-artifact catalog",
	},
	{
		name: "ckpt-resume", goldenKey: "ckpt-resume", new: newCkptResume,
		why:  "one AI-Processor run plain, checkpointing, and resumed from four blobs: the snapshot codec (encode beside decode) does most of the extra work, none of which the quad-die workloads touch",
		work: "simulated kcycles", op: "one round: plain run, checkpointing run, four one-stride resumes, one resume to completion",
	},
	{
		name: "nocd-mixed", goldenKey: "nocd-mixed", new: newNocdMixed,
		why:  "in-process nocd over HTTP, closed loop, 2 clients: cold jobs, Zipf warm hits on both cache tiers, coalesced bursts, a restart with jobs in flight; server/artifact/durable/config do most of the work",
		work: "client requests", op: "one round: 2 cold jobs, 1000 warm resubmissions, one burst of 8 identical submissions",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// workDir is where the workloads keep the state they write (nocd's state
// directory, report hand-over files): inside the checkout, in the
// directory .gitignore names.
var workDir = filepath.Join(".bench_build", "work")

// benchDir is the benchmark's source directory relative to the working
// directory: "bench" from the repository root (bench/run.sh), "." when
// run from inside it (go run ., go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "golden.json")); err == nil {
		return "bench"
	}
	return "."
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and print its result line; empty runs every workload, one process per run")
	seed := fs.Uint64("seed", goldenSeed, "workload seed; inputs are a function of it")
	secs := fs.Float64("seconds", runSeconds, "how long the timed section measures")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes a Chrome trace; 0: end-to-end metrics")
	size := fs.String("size", "full", "full, or smoke (1/50 size, for the smoke test)")
	runs := fs.Int("runs", 1, "runs per workload when running every workload; run i uses seed+i")
	out := fs.String("out", "", "write every run's report to this JSON file")
	reportPath := fs.String("report", "", "with -workload: also write the run's full report to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 when a metric is worse")
	updateGolden := fs.Bool("update-golden", false, "regenerate golden.json from this run (seed 1)")
	printJSON := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printJSON:
		data, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *size != "full" && *size != "smoke" {
		fmt.Fprintf(stderr, "bench: unknown size %q\n", *size)
		return 2
	}
	goldenPath := ""
	if *updateGolden {
		goldenPath = filepath.Join(benchDir(), "golden.json")
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: golden.json:", err)
		return 1
	}
	outDir := filepath.Join(benchDir(), "out")

	if *workload != "" {
		rep, err := runWorkload(runOptions{
			workload: *workload, seed: *seed, seconds: *secs, trace: *trace != 0, size: *size,
			workDir: workDir, outDir: outDir, golden: golden, updateGolden: *updateGolden,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if *updateGolden {
			if err := golden.write(goldenPath); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if *reportPath != "" {
			if err := writeJSON(*reportPath, rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		printReport(stdout, rep)
		printResultLine(stdout, rep)
		if !rep.Correct {
			return 1
		}
		return 0
	}
	return runAll(allOptions{
		seed: *seed, seconds: *secs, trace: *trace != 0, size: *size, runs: *runs,
		out: *out, updateGolden: *updateGolden,
	}, stdout, stderr)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResultLine prints the one-line result the driver reads: exactly
// correct, attempted, failed and metrics.
func printResultLine(w io.Writer, rep *report) {
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// printReport prints every metric by name with its unit, for people.
func printReport(w io.Writer, rep *report) {
	def, _ := findWorkload(rep.Workload)
	kind := "end-to-end (host time and memory)"
	if rep.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  size %s  %s\n", rep.Workload, rep.Seed, rep.Size, kind)
	fmt.Fprintf(w, "   op: %s; work: %s\n", def.op, def.work)
	fmt.Fprintf(w, "   timed %.2f s, %d rounds, median round %.3f ms, %.6g %s per host second\n", rep.WallS, rep.Rounds, rep.RoundMSP50, rep.WorkPerS, def.work)
	if rep.Requests > 0 {
		fmt.Fprintf(w, "   %d client requests, latency p50 %.3f ms", rep.Requests, rep.RequestMSP50)
		if rep.TailP > 0 {
			fmt.Fprintf(w, ", p%g %.3f ms", rep.TailP, rep.TailMS)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d; model validated by shape only, no error figure\n", rep.Attempted, rep.Failed)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := rep.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "   %-44s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, k := range sortedKeys(rep.LayerSelfMS) {
		fmt.Fprintf(w, "   span self time  %-28s %16.3f ms\n", k, rep.LayerSelfMS[k])
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "   trace written to %s\n", rep.TraceFile)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// allOptions selects a run over every workload.
type allOptions struct {
	seed         uint64
	seconds      float64
	trace        bool
	size         string
	runs         int
	out          string
	updateGolden bool
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Runs []*report `json:"runs"`
}

// runAll runs every selected workload, each run in a process of its
// own, so peak memory and allocator state are per run.
func runAll(opt allOptions, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var file reportFile
	failed := false
	traceArg := "0"
	if opt.trace {
		traceArg = "1"
	}
	for _, w := range workloads {
		if w.name == "quad-die-par" && runtime.NumCPU() < 2 {
			fmt.Fprintf(stdout, "== %s  skipped: needs 2 cpus\n", w.name)
			continue
		}
		for i := 0; i < opt.runs; i++ {
			tmp, err := os.CreateTemp(workDir, "report-*.json")
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			tmp.Close()
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(opt.seed + uint64(i)), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", traceArg, "-size", opt.size, "-report", tmp.Name(),
			}
			if opt.updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			outBytes, runErr := cmd.Output()
			rep := &report{}
			data, readErr := os.ReadFile(tmp.Name())
			os.Remove(tmp.Name())
			if readErr != nil || json.Unmarshal(data, rep) != nil || rep.Workload == "" {
				fmt.Fprintf(stderr, "bench: %s run %d produced no report (%v)\n%s", w.name, i, runErr, outBytes)
				failed = true
				continue
			}
			printReport(stdout, rep)
			file.Runs = append(file.Runs, rep)
			if runErr != nil || !rep.Correct {
				failed = true
			}
		}
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "reports written to %s\n", opt.out)
	}
	if failed {
		return 1
	}
	return 0
}
