package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"
)

// setupReps is how often a run sets the workload up; setup_s is the
// median, so one slow start does not decide it.
const setupReps = 3

// untracedShare is the part of a traced run's timed section that runs
// with tracing off, to measure the tracing overhead inside one process.
const untracedShare = 0.3

// env is what a workload sees of the run: the seed its inputs derive
// from, the size, a scratch directory inside the checkout, and the
// tracer (nil unless this is the traced part of a traced run).
type env struct {
	seed    uint64
	size    string // "full" or "smoke"
	workDir string
	tr      *tracer
}

func (e *env) smoke() bool { return e.size == "smoke" }

// workload is one set of inputs the benchmark runs. The harness sets it
// up (several times, timing each), repeats Round until the run's time is
// spent, then calls Finish and, on a traced run, Probe.
type workload interface {
	// Setup generates the inputs from e.seed and builds what every round
	// shares. The harness follows it with one untimed cold round; the
	// two together are one setup_s sample.
	Setup(e *env) error
	// Round runs one op: a fixed sequence of steps, the same work in
	// every round. It records each step's host time under the step's
	// name, the round's wall time and work, and checks every simulated
	// output.
	Round(e *env, r *recorder)
	// Finish runs after the timed section: the checks that need a
	// reference run of their own, and the simulated statistics that the
	// golden file pins for the golden seed.
	Finish(e *env, r *recorder)
	// Probe measures the per-layer numbers that rounds do not produce;
	// traced runs only.
	Probe(e *env, r *recorder)
	Close()
}

type workloadDef struct {
	name string
	why  string
	// goldenKey names the golden entry; quad-die-seq and quad-die-par
	// share one because their simulated statistics must be equal.
	goldenKey string
	// work names the unit of work the report's throughput line counts.
	work string
	// op says what one op (one round) is.
	op  string
	new func(e *env) workload
}

// recorder collects what a run measures. It is safe for the concurrent
// clients of nocd-mixed.
type recorder struct {
	mu        sync.Mutex
	roundMS   []float64            // wall time of each round
	steps     map[string][]float64 // step name -> its host time in each round, ms
	requestMS []float64            // client-request latencies, where the workload has clients
	work      float64
	attempted int
	failed    int
	failures  []string
	layer     map[string]float64   // per-layer metric values
	samples   map[string][]float64 // per-layer timing samples; the metric is their median
	sim       map[string]string    // simulated statistics: must repeat exactly
}

func newRecorder() *recorder {
	return &recorder{steps: map[string][]float64{}, layer: map[string]float64{}, samples: map[string][]float64{}, sim: map[string]string{}}
}

// step records the host time of one step of the current round.
func (r *recorder) step(name string, d time.Duration) {
	r.mu.Lock()
	r.steps[name] = append(r.steps[name], ms(d))
	r.mu.Unlock()
}

// bestOpMS is the op's undisturbed host time: the sum over the op's
// steps of each step's fastest time in any round. The host's
// interference only ever makes a step slower, and it comes in stalls
// much shorter than a run, so a step's fastest round repeats about twice
// as closely from run to run as its median round does (README.md,
// "Steadiness").
func bestOpMS(steps map[string][]float64) float64 {
	var sum float64
	for _, xs := range steps {
		if len(xs) > 0 {
			sum += slices.Min(xs)
		}
	}
	return sum
}

// round closes a round: its wall time and the work it did.
func (r *recorder) round(d time.Duration, work float64) {
	r.mu.Lock()
	r.roundMS = append(r.roundMS, ms(d))
	r.work += work
	r.mu.Unlock()
}

// request records one client request's latency.
func (r *recorder) request(d time.Duration) {
	r.mu.Lock()
	r.requestMS = append(r.requestMS, ms(d))
	r.mu.Unlock()
}

// check counts one verified output; a false ok is a failed operation.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) setSim(key, value string) {
	r.mu.Lock()
	r.sim[key] = value
	r.mu.Unlock()
}

// absorb folds another recorder's verdicts (not its timings) into r.
func (r *recorder) absorb(o *recorder) {
	r.mu.Lock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.mu.Unlock()
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced; the orchestrator and -compare
// read it back, and its Metrics are the result line's metrics.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Size      string                 `json:"size"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Rounds is the sample count behind op_ms_best (each step has one
	// time per round) and RoundMSP50 the median round; WorkPerS is the
	// throughput of the whole timed section, interference included.
	Rounds     int     `json:"rounds"`
	RoundMSP50 float64 `json:"round_ms_p50"`
	WorkPerS   float64 `json:"work_per_s"`
	WallS      float64 `json:"timed_wall_s"`
	// Requests, where the workload has clients: the latency median and
	// the highest percentile with ten samples beyond it.
	Requests     int     `json:"requests,omitempty"`
	RequestMSP50 float64 `json:"request_ms_p50,omitempty"`
	TailP        float64 `json:"tail_percentile,omitempty"`
	TailMS       float64 `json:"tail_ms,omitempty"`
	// Sim holds the simulated statistics (exact-repeat; host-speed
	// changes must leave them identical).
	Sim map[string]string `json:"sim"`
	// LayerSelfMS is span self time per layer (traced runs).
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	NumCPU      int                `json:"num_cpu"`
	GoVersion   string             `json:"go_version"`
}

// runOptions selects one run.
type runOptions struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	size         string
	workDir      string
	outDir       string // where the traced run writes its trace file
	golden       *goldenFile
	updateGolden bool
}

// runWorkload performs one run of one workload in this process.
func runWorkload(opt runOptions) (*report, error) {
	def, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; choose from %v", opt.workload, workloadNames())
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(opt.workDir, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e := &env{seed: opt.seed, size: opt.size, workDir: workDir}
	r := newRecorder()

	// Set-up, several times: inputs, build and one cold round each.
	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.Close()
		}
		start := time.Now()
		w = def.new(e)
		if err := w.Setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		cold := newRecorder()
		w.Round(e, cold)
		setups = append(setups, seconds(time.Since(start)))
		r.absorb(cold)
	}
	defer w.Close()

	minRounds := 3
	if e.smoke() {
		minRounds = 2
	}
	timed := time.Duration(opt.seconds * float64(time.Second))

	// Timed section. A traced run spends the first part untraced, so the
	// tracing overhead is a ratio of two times from one process.
	var tr *tracer
	var profile bytes.Buffer
	var untraced map[string][]float64
	runtime.GC()
	alloc0 := totalAllocMB()
	start := time.Now()
	rounds := 0
	if opt.trace {
		pre := time.Duration(untracedShare * float64(timed))
		for rounds == 0 || time.Since(start) < pre {
			w.Round(e, r)
			rounds++
		}
		untraced, r.steps = r.steps, map[string][]float64{}
		tr = newTracer(def.name)
		e.tr = tr
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}
	tracedRounds := 0
	var rss float64
	for tracedRounds < minRounds || time.Since(start) < timed {
		w.Round(e, r)
		rounds++
		tracedRounds++
		if tracedRounds == minRounds {
			// Peak memory is read after a fixed amount of work - the
			// set-ups and minRounds ops - because nocd keeps every job it
			// has served: read at the end, a faster daemon, which serves
			// more requests in the same time, would look worse.
			rss = peakRSSMB()
		}
	}
	wall := time.Since(start)
	if opt.trace {
		pprof.StopCPUProfile()
	}
	alloc := totalAllocMB() - alloc0
	e.tr = nil

	w.Finish(e, r)

	rep := &report{
		Workload: def.name, Seed: opt.seed, Size: opt.size, Trace: opt.trace, Seconds: opt.seconds,
		Rounds: rounds, RoundMSP50: median(r.roundMS), WorkPerS: r.work / seconds(wall), WallS: seconds(wall),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: map[string]metricValue{},
	}
	if n := len(r.requestMS); n > 0 {
		rep.Requests, rep.RequestMSP50 = n, median(r.requestMS)
		if p, ok := tailPercentile(n); ok {
			rep.TailP, rep.TailMS = p, percentile(r.requestMS, p)
		}
	}
	if r.check(len(r.steps) > 0, "no operation completed") && !opt.trace {
		values := map[string]float64{
			"op_ms_best":      bestOpMS(r.steps),
			"peak_rss_mb":     rss,
			"alloc_mb_per_op": alloc / float64(rounds),
			"setup_s":         median(setups),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	}

	if opt.trace {
		e.tr = tr
		w.Probe(e, r)
		e.tr = nil
		if shares, err := cpuShares(profile.Bytes()); err != nil {
			r.check(false, "cpu profile: %v", err)
		} else {
			for m, v := range shares {
				r.set("cpu_share."+m, v)
			}
		}
		if base := bestOpMS(untraced); base > 0 {
			// As many traced rounds as untraced ones: a minimum over more
			// rounds is lower, whatever was traced.
			traced := map[string][]float64{}
			for name, xs := range r.steps {
				traced[name] = xs[:min(len(xs), len(untraced[name]))]
			}
			r.set("bench.trace_overhead_ratio", bestOpMS(traced)/base)
		}
		for name, xs := range r.samples {
			r.set(name, median(xs))
		}
		for name := range r.layer {
			if _, ok := perLayerUnit[name]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q is not declared", def.name, name)
			}
		}
		for _, m := range perLayer {
			rep.Metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
		tr.mu.Lock()
		rep.LayerSelfMS = layerSelfMS(tr.spans)
		tr.mu.Unlock()
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, err
		}
		rep.TraceFile = filepath.Join(opt.outDir, "trace-"+def.name+".json")
		if err := tr.writeChrome(rep.TraceFile); err != nil {
			return nil, err
		}
	}

	// Simulated statistics against the golden file (golden seed only;
	// other seeds rest on the self-consistency checks above).
	key := def.goldenKey + "/" + opt.size
	if opt.seed == goldenSeed {
		if opt.updateGolden {
			opt.golden.Entries[key] = r.sim
		} else {
			want, ok := opt.golden.Entries[key]
			r.check(ok, "golden file has no entry %q (run with -update-golden)", key)
			for _, k := range sortedKeys(want) {
				r.check(r.sim[k] == want[k], "simulated statistic %s = %q, golden %q", k, r.sim[k], want[k])
			}
			r.check(len(r.sim) == len(want) || !ok, "simulated statistics: %d keys, golden has %d", len(r.sim), len(want))
		}
	}

	rep.Sim = r.sim
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, r.failed, r.failures
	rep.Correct = r.failed == 0
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
