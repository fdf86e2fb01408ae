package experiments

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/traffic"
)

// ResiliencePoint is one (system, bridge-fault count) measurement: the
// delivered throughput and tail latency the degraded network sustains,
// plus the CHI-level recovery counters behind it.
type ResiliencePoint struct {
	System string
	Faults int
	// Throughput is delivered payload bytes per cycle over the whole
	// measurement window (fault included).
	Throughput float64
	// P99 is the 99th-percentile completed-transaction latency in cycles.
	P99 float64
	// Retried / Aborted are CHI transactions re-issued after a timeout
	// and abandoned after the retry budget, summed over all requesters.
	Retried, Aborted uint64
	// Dropped is every flit the network discarded (fault, watchdog,
	// unroutable, corrupt) — the flits CHI retry had to recover from.
	Dropped uint64
	// Recovery summarises the windowed delivery-rate series around the
	// fault: pre-fault mean, post-fault floor and settled throughput.
	Recovery stats.RecoverySummary
}

// ResilienceResult is the full fault-count sweep over both systems.
type ResilienceResult struct {
	Points []ResiliencePoint
	Counts []int
}

// resilienceWindows is how many delivery-rate windows each run records;
// the fault lands at the start of window resilienceFaultWindow.
const (
	resilienceWindows     = 20
	resilienceFaultWindow = 4
)

// RunResilience kills a growing number of bridges mid-run on the
// Server-CPU and AI-Processor topologies and measures what survives:
// with redundant paths and CHI retry the network degrades instead of
// wedging, and the watchdog reaps what routing can no longer place.
func RunResilience(scale Scale) ResilienceResult {
	counts := []int{0, 1, 2, 4}
	if scale == Quick {
		counts = []int{0, 2}
	}
	systems := []string{"server-cpu", "ai-processor"}
	type rcase struct {
		system string
		faults int
	}
	var cases []rcase
	for _, sys := range systems {
		for _, k := range counts {
			cases = append(cases, rcase{sys, k})
		}
	}
	points := RunIndexed("resilience", len(cases),
		func(i int) string { return fmt.Sprintf("resilience/%s/%d", cases[i].system, cases[i].faults) },
		func(i int) ResiliencePoint {
			return measureResilience(scale, cases[i].system, cases[i].faults)
		})
	return ResilienceResult{Points: points, Counts: counts}
}

// measureResilience runs one system with k bridges killed mid-window.
func measureResilience(scale Scale, system string, k int) ResiliencePoint {
	warmup := scale.cycles(600, 3000)
	window := scale.cycles(2500, 20000)
	sub := window / resilienceWindows
	// The retry timeout must clear the healthy p99 latency (~4.6k cycles
	// on the full-scale AI die) or healthy runs spuriously re-issue slow
	// transactions; it must also fire well inside the post-fault window.
	retry := chi.RetryConfig{TimeoutCycles: scale.cycles(800, 6000), MaxRetries: 3}

	var net *noc.Network
	var reqs []*traffic.Requester
	switch system {
	case "server-cpu":
		cfg := soc.ScaledServerConfig(32)
		if scale == Quick {
			cfg = soc.ScaledServerConfig(8)
		}
		s := soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
			const line = 64
			return traffic.RequesterConfig{
				Outstanding:  16,
				Rate:         1,
				ReadFraction: 0.7,
				LineBytes:    line,
				Stream:       traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
				TargetOf:     traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
				Retry:        retry,
			}
		})
		net, reqs = s.Net, s.MemCores
	case "ai-processor":
		cfg := soc.DefaultAIConfig()
		if scale == Quick {
			cfg.VRings, cfg.HRings = 4, 3
			cfg.CoresPerVRing, cfg.L2PerHRing = 1, 2
			cfg.HBMStacks, cfg.DMAEngines = 2, 2
			cfg.IODie = false
			// Back off from saturation: at the default drive the quick
			// die queues flits for thousands of cycles, indistinguishable
			// from stranded ones at quick-scale watchdog budgets.
			cfg.CoreOutstanding, cfg.CoreIssueWidth = 32, 1
			cfg.DMAOutstanding = 12
		}
		cfg.Retry = retry
		a := soc.BuildAIProcessor(cfg)
		net = a.Net
		reqs = append(append([]*traffic.Requester{}, a.Cores...), a.DMAs...)
	default:
		panic("experiments: unknown resilience system " + system)
	}

	// Victims are spread evenly over the bridge inventory (node-ID order
	// is deterministic), all killed at the same cycle: the worst case for
	// the routing rebuild.
	names := net.BridgeNames()
	if k > len(names) {
		k = len(names)
	}
	faultAt := uint64(warmup + resilienceFaultWindow*sub)
	// The watchdog budget must clear the healthy tail latency by a wide
	// margin (it only exists to reap genuinely stranded flits) while
	// still firing inside the post-fault window.
	sched := &fault.Schedule{WatchdogCycles: scale.cycles(1800, 8000)}
	for i := 0; i < k; i++ {
		sched.Events = append(sched.Events, fault.Event{
			At: faultAt, Kind: fault.KillBridge, Bridge: names[(i*len(names))/k],
		})
	}
	if _, err := fault.NewInjector(net, sched, 0x5e5); err != nil {
		panic(err)
	}

	run := func(n int) {
		for i := 0; i < n; i++ {
			net.Tick(sim.Cycle(net.Ticks()))
		}
	}
	run(warmup)
	startBytes := net.DeliveredBytes
	last := startBytes
	series := make([]float64, 0, resilienceWindows)
	for w := 0; w < resilienceWindows; w++ {
		run(sub)
		series = append(series, float64(net.DeliveredBytes-last)/float64(sub))
		last = net.DeliveredBytes
	}

	var retried, aborted uint64
	for _, r := range reqs {
		rt, ab := r.RetryStats()
		retried += rt
		aborted += ab
	}
	elapsed := uint64(resilienceWindows * sub)
	return ResiliencePoint{
		System:     system,
		Faults:     k,
		Throughput: float64(net.DeliveredBytes-startBytes) / float64(elapsed),
		P99:        mergedLatency(reqs).Percentile(99),
		Retried:    retried,
		Aborted:    aborted,
		Dropped:    net.DroppedFlits,
		Recovery:   stats.Recovery(series, resilienceFaultWindow),
	}
}

// Render prints the degradation table.
func (r ResilienceResult) Render() string {
	t := stats.NewTable("system", "faults", "thru B/cyc", "p99 lat", "retried", "aborted", "dropped", "recovered")
	for _, p := range r.Points {
		t.AddRow(p.System, p.Faults,
			fmt.Sprintf("%.1f", p.Throughput),
			fmt.Sprintf("%.0f", p.P99),
			p.Retried, p.Aborted, p.Dropped,
			fmt.Sprintf("%.0f%%", 100*p.Recovery.Ratio))
	}
	return "Resilience: throughput and tail latency vs mid-run bridge kills\n" + t.String() +
		"recovered = settled post-fault throughput as a share of pre-fault throughput\n"
}

// CSV renders the sweep for plotting.
func (r ResilienceResult) CSV() string {
	t := stats.NewTable("system", "faults", "throughput", "p99", "retried", "aborted", "dropped", "before", "floor", "after", "ratio")
	for _, p := range r.Points {
		t.AddRow(p.System, p.Faults, p.Throughput, p.P99, p.Retried, p.Aborted, p.Dropped,
			p.Recovery.Before, p.Recovery.Floor, p.Recovery.After, p.Recovery.Ratio)
	}
	return t.CSV()
}
