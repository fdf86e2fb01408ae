package main

import (
	"fmt"
	"time"

	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/trace"
	"chipletnoc/internal/traffic"
)

// quadDie is the four-die Server-CPU (2 packages x 2 dies, 12 clusters
// per die) under saturating 70/30 read/write streams: every slot busy
// every cycle, so the ring, station and bridge ticks and the memory and
// traffic devices do all the work. How much a saturated package delivers
// - and so how long it takes to simulate - swings by +-9 % with the seed,
// so one op is a round of sixteen short simulations, each with its own
// seed derived from --seed: the round's cost is then steady across seeds.
// Every round simulates the same sixteen things, so each simulation's
// statistics must repeat exactly.
type quadDie struct {
	partitions int
	seeds      []uint64 // one simulation per round each; ServerConfig.Seed
	cycles     int      // per simulation
	segments   int
	rounds     int
	first      []quadStats // per simulation, from the first round
}

// quadStats are one op's simulated statistics.
type quadStats struct {
	Injected, Delivered, DeliveredBytes, Deflections, Hops uint64
	LatSamples, LatFNV                                     uint64
}

func newQuadDie(partitions int) func(e *env) workload {
	return func(e *env) workload {
		q := &quadDie{partitions: partitions, cycles: 3000, segments: 6, seeds: make([]uint64, 16)}
		if e.smoke() {
			q.cycles, q.seeds = 300, q.seeds[:3]
		}
		return q
	}
}

func (q *quadDie) Setup(e *env) error {
	for i := range q.seeds {
		q.seeds[i] = derive(e.seed, uint64(i))
	}
	return nil
}

func (q *quadDie) build(partitions int, seed uint64) *soc.ServerCPU {
	cfg := soc.DefaultServerConfig()
	cfg.Packages = 2
	cfg.ClustersPerDie = 12
	cfg.Partitions = partitions
	cfg.Seed = seed
	return soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
		const line = 64
		return traffic.RequesterConfig{
			Outstanding:  16,
			Rate:         1,
			ReadFraction: 0.7,
			LineBytes:    line,
			Stream:       traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
			TargetOf:     traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
		}
	})
}

// quadSim is what one simulation of a round measured.
type quadSim struct {
	build, run       time.Duration
	segs             []float64 // each Run segment's host time, ns
	stats            quadStats
	partitions       int
	epochs, barriers uint64
}

// quadRound is one op: every simulation of the round.
type quadRound struct {
	total time.Duration
	sims  []quadSim
}

func (o quadRound) run() time.Duration {
	var d time.Duration
	for _, s := range o.sims {
		d += s.run
	}
	return d
}

// runRound builds and runs the round's simulations; prepare, when set,
// instruments each fresh system before it runs (metrics registry,
// tracer).
func (q *quadDie) runRound(e *env, partitions int, prepare func(s *soc.ServerCPU)) quadRound {
	op := q.rounds
	q.rounds++
	var o quadRound
	root := e.tr.begin("quad-die.round", "bench", -1, op, 0)
	start := time.Now()
	for _, seed := range q.seeds {
		var out quadSim
		var s *soc.ServerCPU
		out.build = e.tr.do("soc.BuildServerCPU", "soc", root, op, 0, func() { s = q.build(partitions, seed) })
		lat := sim.FNVOffset
		var samples uint64
		s.Net.RecordLatency(func(_ *noc.Flit, cycles uint64) {
			lat = sim.FNV1aFoldU64(lat, cycles)
			samples++
		})
		if prepare != nil {
			prepare(s)
		}
		seg := q.cycles / q.segments
		for i := 0; i < q.segments; i++ {
			d := e.tr.do("noc.Run", "noc", root, op, 0, func() { s.Run(seg) })
			out.run += d
			out.segs = append(out.segs, float64(d))
		}
		snap := s.Net.Snapshot()
		out.stats = quadStats{
			Injected: snap.InjectedFlits, Delivered: snap.DeliveredFlits, DeliveredBytes: snap.DeliveredBytes,
			Deflections: snap.Deflections, Hops: snap.TotalHops, LatSamples: samples, LatFNV: lat,
		}
		out.partitions, out.epochs, out.barriers = s.Net.Partitions(), s.Net.EpochsRun, s.Net.BarrierSyncs
		o.sims = append(o.sims, out)
	}
	o.total = time.Since(start)
	e.tr.end(root)
	return o
}

// checkRound compares a round's statistics with the first round's.
func (q *quadDie) checkRound(r *recorder, o quadRound, what string) {
	if q.first == nil {
		for _, sim := range o.sims {
			q.first = append(q.first, sim.stats)
		}
	}
	for i, sim := range o.sims {
		r.check(sim.stats == q.first[i] && sim.stats.Delivered > 0,
			"%s, simulation %d: statistics %+v differ from the first round's %+v", what, i, sim.stats, q.first[i])
	}
}

func (q *quadDie) Round(e *env, r *recorder) {
	o := q.runRound(e, q.partitions, nil)
	cycles := len(q.seeds) * q.cycles
	r.round(o.total, float64(cycles)/1000)
	q.checkRound(r, o, fmt.Sprintf("round %d", q.rounds-1))

	var total quadStats
	var epochs, barriers uint64
	for i, sim := range o.sims {
		// One step per build and per Run segment: the shorter a step, the
		// likelier that one of its rounds ran undisturbed.
		r.step(fmt.Sprintf("sim-%02d.build", i), sim.build)
		for k, d := range sim.segs {
			r.step(fmt.Sprintf("sim-%02d.run-%d", i, k), time.Duration(d))
		}
		r.sample("soc.build_ms", ms(sim.build))
		if m := median(sim.segs[1:]); m > 0 {
			r.sample("noc.first_segment_ratio", sim.segs[0]/m)
		}
		total.Delivered += sim.stats.Delivered
		total.Injected += sim.stats.Injected
		total.Deflections += sim.stats.Deflections
		total.Hops += sim.stats.Hops
		epochs += sim.epochs
		barriers += sim.barriers
	}
	run := o.run()
	r.sample("noc.run_ns_per_cycle", float64(run)/float64(cycles))
	if total.Hops > 0 {
		r.sample("noc.run_ns_per_hop", float64(run)/float64(total.Hops))
	}
	r.set("noc.partitions_effective", float64(o.sims[0].partitions))
	r.set("noc.epochs", float64(epochs))
	r.set("noc.barrier_syncs", float64(barriers))
	if epochs > 0 {
		r.set("noc.cycles_per_epoch", float64(cycles)/float64(epochs))
	}
	r.set("noc.flits_delivered", float64(total.Delivered))
	r.set("noc.injected", float64(total.Injected))
	r.set("noc.deflections", float64(total.Deflections))
	r.set("noc.hops", float64(total.Hops))
}

func (q *quadDie) Finish(e *env, r *recorder) {
	if q.first == nil {
		return
	}
	if q.partitions > 1 {
		// The partitioned engine must compute what the sequential one
		// does: one sequential reference round, outside the timed section.
		q.checkRound(r, q.runRound(e, 1, nil), "sequential reference")
	}
	for i, st := range q.first {
		r.setSim(fmt.Sprintf("sim-%02d", i), fmt.Sprintf("injected=%d delivered=%d bytes=%d deflections=%d hops=%d latency_samples=%d latency_fnv=%#x",
			st.Injected, st.Delivered, st.DeliveredBytes, st.Deflections, st.Hops, st.LatSamples, st.LatFNV))
	}
}

func (q *quadDie) Probe(e *env, r *recorder) {
	// Fixed cost of one Run call: 1000 one-cycle calls against one
	// 1000-cycle call on the same warmed-up, saturated system.
	s := q.build(q.partitions, q.seeds[0])
	s.Run(2000)
	one := e.tr.do("noc.Run[1000]", "noc", -1, -1, 0, func() { s.Run(1000) })
	many := e.tr.do("noc.Run[1]x1000", "noc", -1, -1, 0, func() {
		for i := 0; i < 1000; i++ {
			s.Run(1)
		}
	})
	one2 := timeIt(func() { s.Run(1000) })
	r.set("noc.run_call_overhead_us", us(many-(one+one2)/2)/1000)

	plain := q.runRound(e, q.partitions, nil).run()
	if q.partitions > 1 {
		seq := q.runRound(e, 1, nil).run()
		r.set("noc.par_speedup", float64(seq)/float64(plain))
		return
	}
	// Observability overheads: the same round with a metrics registry
	// sampling every 100 cycles, and with a tracer attached.
	withMetrics := q.runRound(e, 1, func(s *soc.ServerCPU) { s.EnableMetrics(metrics.New(100)) })
	q.checkRound(r, withMetrics, "with a metrics registry")
	r.set("metrics.overhead_ratio", float64(withMetrics.run())/float64(plain))
	withTrace := q.runRound(e, 1, func(s *soc.ServerCPU) { s.Net.Tracer = trace.New(1 << 16) })
	q.checkRound(r, withTrace, "with a tracer")
	r.set("trace.overhead_ratio", float64(withTrace.run())/float64(plain))
}

func (q *quadDie) Close() {}
