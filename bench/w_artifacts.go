package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"chipletnoc/internal/experiments"
	"chipletnoc/internal/stats"
)

// paperArtifacts is one pass over the Quick-scale experiment catalog,
// the paper reproduction users actually run: hundreds of 2-10 k-cycle
// simulations, so per-run fixed cost (system build, route tables, pools,
// sort-on-query histograms) matters most and steady-state tick speed
// least. One op is one pass. The catalog takes no seed; the seed sets
// the order the artifacts run in.
type paperArtifacts struct {
	order  []string
	passes int
	first  map[string]string // artifact -> SHA-256 of its text and CSVs
}

func newPaperArtifacts(e *env) workload { return &paperArtifacts{first: map[string]string{}} }

func (p *paperArtifacts) Setup(e *env) error {
	experiments.SetParallelism(1)
	if got := experiments.ExperimentNames(); !reflect.DeepEqual(got, artifactNames) {
		return fmt.Errorf("the experiment catalog is %v, the benchmark expects %v", got, artifactNames)
	}
	names := artifactNames
	if e.smoke() {
		// The four artifacts that finish in milliseconds.
		names = []string{"table5", "scaleup", "area", "replay"}
	}
	p.order = nil
	for _, i := range newRNG(e.seed).perm(len(names)) {
		p.order = append(p.order, names[i])
	}
	return nil
}

// artifactSum fingerprints an artifact: text, then CSVs by file name.
func artifactSum(a *experiments.Artifact) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n", a.Name, a.Scale, a.Text)
	for _, f := range sortedKeys(a.CSVs) {
		fmt.Fprintf(h, "%s\n%s\n", f, a.CSVs[f])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pass runs every artifact once and returns each one's wall time.
func (p *paperArtifacts) pass(e *env, r *recorder, op int) (total time.Duration, each map[string]time.Duration) {
	each = map[string]time.Duration{}
	root := e.tr.begin("paper-artifacts.pass", "bench", -1, op, 0)
	start := time.Now()
	for _, name := range p.order {
		var a *experiments.Artifact
		var err error
		each[name] = e.tr.do("experiments.RunExperiment["+name+"]", "experiments", root, op, 0, func() {
			a, err = experiments.RunExperiment(name, experiments.Quick)
		})
		if !r.check(err == nil, "pass %d: %s: %v", op, name, err) {
			continue
		}
		sum := artifactSum(a)
		if _, ok := p.first[name]; !ok {
			p.first[name] = sum
		}
		r.check(sum == p.first[name] && a.Text != "", "pass %d: %s rendered differently from the first pass", op, name)
	}
	total = time.Since(start)
	e.tr.end(root)
	return total, each
}

func (p *paperArtifacts) Round(e *env, r *recorder) {
	op := p.passes
	p.passes++
	total, each := p.pass(e, r, op)
	r.round(total, float64(len(p.order)))
	r.sample("experiments.artifact_pass_s", seconds(total))
	for name, d := range each {
		r.step(name, d)
		r.sample("experiments.artifact_s."+metricSafe(name), seconds(d))
	}
}

func (p *paperArtifacts) Finish(e *env, r *recorder) {
	for name, sum := range p.first {
		r.setSim(name, sum)
	}
}

func (p *paperArtifacts) Probe(e *env, r *recorder) {
	// The job runner's gain: the same pass with as many workers as CPUs.
	one, _ := p.pass(e, r, -1)
	experiments.SetParallelism(runtime.NumCPU())
	many, _ := p.pass(e, r, -1)
	experiments.SetParallelism(1)
	r.set("experiments.runner_speedup", float64(one)/float64(many))

	// The raw-sample histogram the artifacts query: record, then the
	// sort-on-query percentile at 10^5 samples.
	const n = 100000
	g := newRNG(e.seed)
	var h stats.Histogram
	r.set("stats.histogram_record_ns", float64(perCall(n, func(int) { h.Add(float64(g.next() & 0xffff)) })))
	r.set("stats.histogram_percentile_us", us(timeIt(func() { h.Percentile(99) })))
}

func (p *paperArtifacts) Close() {}
