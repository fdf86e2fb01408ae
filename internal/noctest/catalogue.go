// Package noctest is the catalogue of reference systems the cross-package
// harnesses run over: the gated-vs-forced-awake differential with its
// idle-honesty probe, state-walk field coverage, checkpoint resume and
// restore fuzzing (internal/noc's catalogue tests). A system is its
// network; every harness runs it with Network.Run, so an entry appended
// to Catalogue is under every harness with no other edit.
package noctest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/coherence"
	"chipletnoc/internal/config"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/traffic"
)

// System is one catalogue entry: Build returns a fresh, identical network
// each call; a harness runs it Cycles cycles and stops it at each cycle
// of At (ascending, inside the run) to look at it mid-run.
type System struct {
	Name   string
	Build  func() *noc.Network
	Cycles int
	At     []int
}

// Catalogue is every reference system, in a fixed order (restore-fuzz
// inputs name an entry by its index).
var Catalogue = []System{
	{"ai-die", aiDie, 3000, []int{1100}},
	{"ai-die/faulted", aiDieFaulted, 3000, []int{600, 950, 1100}},
	{"server-cpu", serverCPU, 4000, []int{30, 1500}},
	{"quad-die/saturated", func() *noc.Network { return quadDie(2, 0, saturating) }, 3000, []int{1500}},
	{"quad-die/trickle", quadDieTrickle, 3000, []int{1500}},
	{"quad-die/bridge-fault", quadDieBridgeFault, 2500, []int{1000}},
	{"quad-die/everything", quadDieEverything, 2500, []int{1500}},
	{"quad-die/bench", func() *noc.Network { return quadDie(12, 1, saturating) }, 3000, []int{1500}},
	{"serving/load-1", servingAt(1, "poisson"), 20000, []int{1200, 3000}},
	{"serving/load-8", servingAt(8, "poisson"), 20000, []int{1200, 3000}},
	{"serving/load-24", servingAt(24, "poisson"), 20000, []int{1200, 3000}},
	{"serving/load-24-bursty", servingAt(24, "bursty"), 20000, []int{1200, 3000}},
	{"serving/load-400", servingAt(400, "poisson"), 4000, []int{1200, 3000}},
	fabric("diff-multiring", false), fabric("diff-multiring", true),
	fabric("diff-mesh", false), fabric("diff-mesh", true),
	fabric("diff-hub", false), fabric("diff-hub", true),
	fabric("diff-mesh-faults", false), fabric("diff-mesh-faults", true),
}

// Lookup returns the catalogue entry of the given name.
func Lookup(name string) System {
	for _, s := range Catalogue {
		if s.Name == name {
			return s
		}
	}
	panic("noctest: no catalogue entry " + name)
}

// aiDie is the Quick AI die, the golden-digest configuration: a mesh of
// rings woven from RBRG-L1 intersections under deflection-heavy traffic.
func aiDie() *noc.Network { return soc.BuildAIProcessor(soc.QuickAIConfig()).Net }

// aiDieFaulted is the AI die under the soc golden fault script: an RBRG-L1
// killed and repaired, a flit dropped, a flit corrupted, the watchdog
// sweeping.
func aiDieFaulted() *noc.Network {
	net := aiDie()
	return faulted(net, &fault.Schedule{
		WatchdogCycles: 1200,
		Events: []fault.Event{
			{At: 500, Kind: fault.KillBridge, Bridge: net.BridgeNames()[0], RepairAt: 1800},
			{At: 900, Kind: fault.DropFlit},
			{At: 1000, Kind: fault.CorruptFlit},
		},
	}, 0x5e5)
}

// serverCPU is the golden coherent-read scenario: M/E/S lines primed in
// the die-0 directories, read from both compute dies. Once the reads are
// answered the coherence agents sleep and the clock jumps.
func serverCPU() *noc.Network {
	cfg := soc.DefaultServerConfig()
	cfg.ClustersPerDie = 3
	s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
	perDie := cfg.ClustersPerDie * cfg.CoresPerCluster
	states := []coherence.State{coherence.Modified, coherence.Exclusive, coherence.Shared}
	var addrs []uint64
	for i := 0; len(addrs) < 24; i++ {
		addr := uint64(i) * 4096
		if home := s.Homes.HomeOf(addr); home < cfg.ClustersPerDie {
			s.Dirs[home].SetLine(addr, states[len(addrs)%len(states)], s.Cores[0].Node())
			addrs = append(addrs, addr)
		}
	}
	for i, a := range addrs {
		reader := s.Cores[2]
		if i%2 == 1 {
			reader = s.Cores[perDie+2]
		}
		reader.Read(a)
	}
	return s.Net
}

// quadDie is the four-die Server-CPU of the benchmark's quad-die
// workloads: clusters clusters per die (the benchmark builds 12), the
// given ServerConfig.Seed, and memory cores that each run req on their
// own sequential stream of 64-byte lines, interleaved over every DDR
// channel.
func quadDie(clusters int, seed uint64, req traffic.RequesterConfig) *noc.Network {
	cfg := soc.DefaultServerConfig()
	cfg.Packages, cfg.ClustersPerDie, cfg.Seed = 2, clusters, seed
	return soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
		const line = 64
		rc := req
		rc.LineBytes = line
		rc.Stream = traffic.NewSeqStream(uint64(core)<<28, line, 1<<22)
		rc.TargetOf = traffic.InterleavedTargetsBy(s.AllDDRNodes(), line)
		return rc
	}).Net
}

// saturating is a closed-loop memory core: it sleeps while its
// transaction table is full, but some flit is always in flight.
var saturating = traffic.RequesterConfig{Outstanding: 16, Rate: 1, ReadFraction: 0.7}

// quadDieTrickle issues one request per core per thousand cycles: rings
// and bridges sleep, while the requesters draw their issue coin every
// cycle and so never do.
func quadDieTrickle() *noc.Network {
	req := saturating
	req.Rate = 0.001
	return quadDie(2, 0, req)
}

// quadDieBridgeFault kills and repairs an inter-package PA link (an
// RBRG-L2 with flits and credit pulses on its wire) on the saturated
// quad-die package, the watchdog reaping what the dead bridge strands.
func quadDieBridgeFault() *noc.Network {
	net := quadDie(2, 0, saturating)
	names := net.BridgeNames()
	return faulted(net, &fault.Schedule{
		WatchdogCycles: 900,
		Events:         []fault.Event{{At: 700, Kind: fault.KillBridge, Bridge: names[len(names)-1], RepairAt: 1600}},
	}, 0x77)
}

// quadDieEverything arms everything at once on the quad-die package:
// spurious CHI retries (anything slower than 300 cycles is re-issued), the
// throttle, the watchdog and a fault injector between a bridge kill and
// its repair, so requesters, controllers with open write bursts and
// RBRG-L2 halves all hold live state.
func quadDieEverything() *noc.Network {
	net := quadDie(2, 0, traffic.RequesterConfig{Outstanding: 8, Rate: 1, ReadFraction: 0.5,
		Retry: chi.RetryConfig{TimeoutCycles: 300, MaxRetries: 6}})
	net.SetThrottle(noc.DefaultThrottleConfig())
	net.SetWatchdog(5000, 0)
	return faulted(net, &fault.Schedule{Events: []fault.Event{
		{At: 1000, Kind: fault.KillBridge, Bridge: net.BridgeNames()[0], RepairAt: 2000},
		{At: 1800, Kind: fault.DropFlit},
	}}, 7)
}

// faulted attaches a fault injector replaying sched to net.
func faulted(net *noc.Network, sched *fault.Schedule, seed uint64) *noc.Network {
	if _, err := fault.NewInjector(net, sched, seed); err != nil {
		panic(err)
	}
	return net
}

// servingAt builds the default serving spec at one offered load under the
// given arrival process.
func servingAt(load float64, process string) func() *noc.Network {
	return func() *noc.Network {
		spec := &config.ServingSpec{Loads: []float64{load}, Arrival: config.ServingArrivalSpec{Process: process}}
		spec.ApplyDefaults(true)
		sys, err := serving.Build(spec, 0)
		if err != nil {
			panic(err)
		}
		return sys.Net
	}
}

// fabric is one declarative reference fabric of internal/config's
// testdata at its own request rates or, trickle, throttled to one request
// per 250 cycles per requester, where faults land in a mostly sleeping
// fabric.
func fabric(name string, trickle bool) System {
	_, here, _, _ := runtime.Caller(0)
	doc, err := os.ReadFile(filepath.Join(filepath.Dir(here), "..", "config", "testdata", name+".json"))
	if err != nil {
		panic(err)
	}
	build := func() *noc.Network {
		spec, err := config.Parse(doc)
		if err != nil {
			panic(err)
		}
		for i := range spec.Devices {
			if trickle && spec.Devices[i].Type == "requester" {
				spec.Devices[i].Rate = 0.004
			}
		}
		sys, err := spec.Build()
		if err != nil {
			panic(err)
		}
		return sys.Net
	}
	return System{fmt.Sprintf("config/%s/trickle=%v", name, trickle), build, 2500, []int{600, 800, 1000}}
}
