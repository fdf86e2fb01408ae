package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced, against the smoke-size goldens: the harness, every workload's
// checks and every per-layer probe execute, in a few seconds.
func TestSmokeWorkloads(t *testing.T) {
	golden, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rep, err := runWorkload(runOptions{
					workload: w.name, seed: goldenSeed, seconds: 0, trace: trace, size: "smoke",
					workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"), golden: golden,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := rep.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v)", m.Name, v, ok)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, v.Value)
					}
				}
				if trace {
					if _, err := os.Stat(rep.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
					if rep.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
						t.Errorf("bench.trace_overhead_ratio not reported")
					}
				}
			})
		}
	}
}

// TestSmokeOtherSeed runs a seed the golden file does not pin: only the
// self-consistency checks apply, and all must hold.
func TestSmokeOtherSeed(t *testing.T) {
	golden, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		dir := t.TempDir()
		rep, err := runWorkload(runOptions{
			workload: w.name, seed: 12345, seconds: 0, size: "smoke",
			workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"), golden: golden,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Errorf("%s at seed 12345: %v", w.name, rep.Failures)
		}
	}
}

// TestGoldenMismatchFails proves the golden check has teeth.
func TestGoldenMismatchFails(t *testing.T) {
	golden, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	entry := map[string]string{}
	for k, v := range golden.Entries["quad-die/smoke"] {
		entry[k] = v
	}
	entry["sim-00"] = "moved"
	golden.Entries["quad-die/smoke"] = entry
	dir := t.TempDir()
	rep, err := runWorkload(runOptions{
		workload: "quad-die-seq", seed: goldenSeed, size: "smoke",
		workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"), golden: golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("a moved simulated statistic passed: %+v", rep)
	}
}

// TestQuadDieSeqParShareGolden: the two quad-die workloads are checked
// against one golden entry, so equal statistics are required of them.
func TestQuadDieSeqParShareGolden(t *testing.T) {
	seq, _ := findWorkload("quad-die-seq")
	par, _ := findWorkload("quad-die-par")
	if seq.goldenKey != par.goldenKey {
		t.Fatalf("golden keys differ: %q and %q", seq.goldenKey, par.goldenKey)
	}
}

// TestBenchmarkJSON checks the declared benchmark against the contract's
// limits and, when the repository root is there, against the committed
// BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	data, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.why == "" {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if !bytes.Equal(committed, data) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh --benchmark-json > BENCHMARK.json")
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestZipfDeterministicFromSeed(t *testing.T) {
	draw := func(seed uint64) []int {
		z := newZipf(newRNG(seed), 40, 1.1)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same, differ := true, false
	counts := make([]int, 40)
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if a[i] < 0 || a[i] >= 40 {
			t.Fatalf("rank %d out of range", a[i])
		}
		counts[a[i]]++
	}
	if !same || !differ {
		t.Errorf("same seed repeats: %v; another seed differs: %v", same, differ)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[39] == counts[0] {
		t.Errorf("ranks are not Zipf-ordered: %v", counts)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Layer: "bench", Start: msd(0), End: msd(100), Parent: -1},
		{Name: "a", Layer: "noc", Start: msd(10), End: msd(40), Parent: 0},
		{Name: "b", Layer: "noc", Start: msd(30), End: msd(60), Parent: 0},  // overlaps a: covered once
		{Name: "c", Layer: "sim", Start: msd(90), End: msd(120), Parent: 0}, // clipped to the parent
		{Name: "a1", Layer: "mem", Start: msd(15), End: msd(20), Parent: 1},
		{Name: "open", Layer: "mem", Start: msd(50), End: -1, Parent: 0}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := []time.Duration{msd(100 - 50 - 10), msd(25), msd(30), msd(30), msd(5), 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := layerSelfMS(spans)["noc"]; got != 55 {
		t.Errorf("noc self time = %v ms, want 55", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_best", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "some_rate", Better: "higher", Bound: 0.10}
	tight := func(c float64) column { return summarise([]float64{c * 0.99, c, c, c * 1.01, c}) }
	wide := func(c float64) column { return summarise([]float64{c * 0.7, c * 0.8, c, c * 1.2, c * 1.3}) }
	for _, c := range []struct {
		name string
		m    metricDef
		a, b column
		want string
	}{
		{"same", lower, tight(100), tight(101), verdictOK},
		{"slower", lower, tight(100), tight(115), verdictWorse},
		{"faster", lower, tight(100), tight(50), verdictOK},
		{"less throughput", higher, tight(100), tight(85), verdictWorse},
		{"more throughput", higher, tight(100), tight(130), verdictOK},
		{"noisy", lower, wide(100), wide(102), verdictUnresolved},
		{"noisy but every run better", lower, wide(100), wide(40), verdictOK},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, opMS float64, hops string) string {
		f := reportFile{}
		for i := 0; i < 5; i++ {
			r := &report{Workload: "quad-die-seq", Seed: uint64(1 + i), Size: "full", Correct: true,
				Metrics: map[string]metricValue{}, Sim: map[string]string{"hops": hops}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = metricValue{Value: 10, Unit: m.Unit}
			}
			r.Metrics["op_ms_best"] = metricValue{Value: opMS + float64(i)*0.01, Unit: "ms"}
			f.Runs = append(f.Runs, r)
		}
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(f)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 100, "7")
	var out, errOut bytes.Buffer
	if code := compareFiles(base, mk("same.json", 101, "7"), &out, &errOut); code != 0 {
		t.Errorf("equal files: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(base, mk("slow.json", 130, "7"), &out, &errOut); code != 1 {
		t.Errorf("a 30%% slower file: exit %d", code)
	}
	if code := compareFiles(base, mk("moved.json", 100, "8"), &out, &errOut); code != 1 {
		t.Errorf("a moved simulated statistic: exit %d", code)
	}
}

func TestCPUBuckets(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "chipletnoc/internal/noc.(*Ring).advance", "chipletnoc/internal/noc.(*Network).Tick"}, "noc"},
		{[]string{"chipletnoc/internal/mem.(*Controller).Tick", "chipletnoc/internal/noc.(*Network).Tick"}, "mem"},
		{[]string{"runtime.gosched_m", "chipletnoc/internal/sim.(*SpinBarrier).Wait", "chipletnoc/internal/noc.(*Network).runPartitioned"}, "noc.barrier"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "chipletnoc/internal/stats.(*Histogram).Add"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "chipletnoc/internal/durable.WriteFile", "chipletnoc/internal/server.(*Server).persistJob"}, "durable"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"chipletnoc/internal/experiments.RunSim"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
