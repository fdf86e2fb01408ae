package main

import (
	"fmt"
	"time"

	"chipletnoc/internal/config"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/stats"
)

// serveSweep is the open-loop MoE serving sweep on the default four-die
// spec, Poisson arrivals, offered loads 1..24 requests/kcycle, one
// single-point experiments.RunServing call per load. Arrivals
// are open-loop in simulated time; the host loop is closed (one sweep
// after another, one goroutine). Four of the six points sit far below
// the saturation knee, so the fabric is empty most cycles: the tick
// engine is used the opposite way to quad-die, and the serving
// orchestrator and the quantile sketch are on the path.
type serveSweep struct {
	specs  []*config.ServingSpec // one single-point sweep per load, so each point is a timed step
	cycles int
	sweeps int
	first  []experiments.ServingPoint
}

func newServeSweep(e *env) workload {
	s := &serveSweep{cycles: 100000}
	if e.smoke() {
		s.cycles = 2000
	}
	return s
}

func (s *serveSweep) Setup(e *env) error {
	experiments.SetParallelism(1)
	s.specs = nil
	for _, l := range servingLoads {
		// The seed reaches the simulator only inside the generated document.
		doc := fmt.Sprintf(`{"seed":%d,"loads":[%d],"cycles":%d}`, e.seed, l, s.cycles)
		_, spec, err := experiments.NormalizeServingDoc(doc, experiments.Quick)
		if err != nil {
			return err
		}
		s.specs = append(s.specs, spec)
	}
	return nil
}

func (s *serveSweep) Round(e *env, r *recorder) {
	op := s.sweeps
	s.sweeps++
	root := e.tr.begin("serve-sweep.sweep", "bench", -1, op, 0)
	start := time.Now()
	var points []experiments.ServingPoint
	for i, spec := range s.specs {
		var res *experiments.ServingResult
		d := e.tr.do("experiments.RunServing", "experiments", root, op, 0, func() { res = experiments.RunServing(spec) })
		r.step(fmt.Sprintf("load-%d", servingLoads[i]), d)
		if r.check(len(res.Points) == 1, "sweep %d load %d: %d points, want 1", op, servingLoads[i], len(res.Points)) {
			points = append(points, res.Points[0])
		}
	}
	total := time.Since(start)
	e.tr.end(root)
	r.round(total, float64(len(servingLoads)*s.cycles)/1000)
	if len(points) != len(servingLoads) {
		return
	}
	if s.first == nil {
		s.first = points
	}
	var completed, stalls uint64
	for i, p := range points {
		r.check(p == s.first[i], "sweep %d load %v: point %+v differs from the first sweep's %+v", op, p.Load, p, s.first[i])
		completed += p.Completed
		stalls += p.StallCycles
	}
	r.check(completed > 0, "sweep %d completed no request", op)
	r.set("serving.requests_completed", float64(completed))
	r.set("serving.stall_cycles", float64(stalls))
	r.sample("serving.requests_per_host_s", float64(completed)/seconds(total))
}

func (s *serveSweep) Finish(e *env, r *recorder) {
	for i, p := range s.first {
		k := fmt.Sprintf("load-%d.", servingLoads[i])
		r.setSim(k+"digest", p.Digest)
		r.setSim(k+"admitted", fmt.Sprint(p.Admitted))
		r.setSim(k+"completed", fmt.Sprint(p.Completed))
		r.setSim(k+"p99", fmt.Sprint(p.P99))
	}
}

func (s *serveSweep) Probe(e *env, r *recorder) {
	// One sweep taken apart: each load point built and run on its own.
	for i, l := range servingLoads {
		var sys *serving.System
		var err error
		build := e.tr.do("serving.Build", "serving", -1, -1, 0, func() { sys, err = serving.Build(s.specs[i], 0) })
		if !r.check(err == nil, "serving.Build load %d: %v", l, err) {
			continue
		}
		run := e.tr.do(fmt.Sprintf("serving.Run[load-%d]", l), "serving", -1, -1, 0, sys.Run)
		r.sample("serving.build_ms", ms(build))
		r.set(fmt.Sprintf("serving.point_s.load-%d", l), seconds(build+run))
		if i == 0 {
			r.set("noc.idle_ns_per_cycle", float64(run)/float64(s.cycles))
		}
	}
	var sk stats.QuantileSketch
	const n = 1 << 20
	g := newRNG(e.seed)
	r.set("stats.sketch_observe_ns", float64(perCall(n, func(int) { sk.Observe(g.next() & 0xffff) })))
}

func (s *serveSweep) Close() {}
