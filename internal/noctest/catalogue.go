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
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/traffic"
	"chipletnoc/internal/workloads"
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
	{"server-cpu/bursts", serverCPUBursts, 4000, []int{1500, 3000}},
	{"replay/bursty", replayBursty, 4000, []int{300, 1500}},
	{"traffic/requesters", requesters(RequesterCases, 12, true), 2400, []int{300, 1500}},
	// The ablation rigs: Figure 9's all-cross flood over one RBRG-L2, in
	// DRM from cycle 241 with SWAP and deadlocked without; the tag
	// ablation's flooded slow sink; one flit at a time on the high-dense
	// wire fabric's ring.
	{"ablation/swap", func() *noc.Network { n, _ := experiments.SwapRig(true); return n }, 3000, []int{300, 1500}},
	{"ablation/no-swap", func() *noc.Network { n, _ := experiments.SwapRig(false); return n }, 3000, []int{300, 1500}},
	{"ablation/tags-on", func() *noc.Network { return experiments.TagsRig(true) }, 3000, []int{300, 1500}},
	{"ablation/tags-off", func() *noc.Network { return experiments.TagsRig(false) }, 3000, []int{300, 1500}},
	{"ablation/wire-dense", func() *noc.Network { return experiments.WireRig(72, 20) }, 2880, []int{300, 1500}},
	{"traffic/open-loop-blocked", requesters(BlockedCases, 4, false), 2400, []int{300, 1500}},
	{"l1/eject-reserved", l1EjectReserved, 1200, []int{300, 900}},
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

// serverCPUBursts is the coherent Server-CPU with two-entry transaction
// tables and a burster driving the first core of each compute die: the
// two sleep on a full table with requests still queued, and wake to
// requests handed to them mid-run.
func serverCPUBursts() *noc.Network {
	cfg := soc.DefaultServerConfig()
	cfg.ClustersPerDie, cfg.Outstanding = 2, 2
	s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
	cores := []*coherence.CoreAgent{s.Cores[0], s.Cores[len(s.Cores)/2]}
	s.Net.AddDevice(&burster{cores: cores, rng: sim.NewRNG(0xb5), left: 120})
	return s.Net
}

// burster drives coherent cores in bursts of one to five requests, each
// from a random core to one of six hot lines, deeper than a transaction
// table, with a gap of up to 120 cycles after each that sometimes lets
// everything drain. It ticks after the cores, so a request wakes its
// core for the next cycle.
type burster struct {
	cores []*coherence.CoreAgent
	rng   *sim.RNG
	next  sim.Cycle // cycle of the next burst
	left  uint64    // requests still to hand out
}

func (b *burster) Name() string { return "burster" }

func (b *burster) Tick(now sim.Cycle) {
	if b.left == 0 || now < b.next {
		return
	}
	for n := 1 + b.rng.Intn(5); n > 0 && b.left > 0; n-- {
		core := b.cores[b.rng.Intn(len(b.cores))]
		addr := uint64(b.rng.Intn(6)) * 64
		[]func(uint64){core.Read, core.ReadOwned, core.Write, core.WriteBack}[b.rng.Intn(4)](addr)
		b.left--
	}
	b.next = now + 1 + sim.Cycle(b.rng.Intn(120))
}

func (b *burster) IdleUntil(now sim.Cycle) sim.Cycle {
	if b.left == 0 {
		return noc.Never
	}
	return max(now, b.next)
}

func (b *burster) SnapState(s *noc.Snap) {
	b.rng.SnapState(s.Codec)
	sim.Uint(s.Codec, &b.next)
	s.U64(&b.left)
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

// replayBursty is cmd/tracegen's replay rig, workloads.ReplayRig — one
// ring, an HBM stack, a 32-entry transaction table — replaying a
// synthetic trace of dense bursts deeper than the table (the replay
// slips, awake) separated by gaps long enough to drain (asleep until the
// next recorded cycle).
func replayBursty() *noc.Network {
	rng := sim.NewRNG(0x7ace)
	var ops []traffic.TraceOp
	at := uint64(0)
	for len(ops) < 200 {
		for n := 1 + rng.Intn(64); n > 0; n-- {
			ops = append(ops, traffic.TraceOp{Cycle: at, Write: rng.Bernoulli(0.4), Addr: uint64(len(ops)) * 256, Size: 256})
			at += uint64(rng.Intn(2))
		}
		at += uint64(100 + rng.Intn(500))
	}
	net, _ := workloads.ReplayRig(ops)
	return net
}

// RequesterCases are the ways a traffic requester's issue loop can sleep
// or must not: a closed loop on a full table, an open loop with a request
// budget (it draws before it looks at the table, so it must not sleep on
// a full one), a split write pool (a full read budget alone still draws
// the class coin), retry deadlines to sleep towards, a closed loop that
// spends its budget, and tables deeper than the inject queue whose write
// bursts back up behind a slow memory, so the requester sleeps on a beat
// backlog: closed loop, open loop, and with a deadline.
var RequesterCases = []traffic.RequesterConfig{
	{Outstanding: 4, Rate: 1, ReadFraction: 0.7},
	{Outstanding: 2, Rate: 0.3, ReadFraction: 0.7, MaxRequests: 40},
	{Outstanding: 3, WriteOutstanding: 2, Rate: 1, ReadFraction: 0.5},
	{Outstanding: 4, Rate: 1, ReadFraction: 0.7, Retry: chi.RetryConfig{TimeoutCycles: 60, MaxRetries: 3}},
	{Outstanding: 4, Rate: 1, ReadFraction: 0.7, MaxRequests: 60, IssuePerCycle: 2},
	{Outstanding: 24, Rate: 1, ReadFraction: 0.3, IssuePerCycle: 2},
	{Outstanding: 24, Rate: 0.8, ReadFraction: 0.3, IssuePerCycle: 2},
	{Outstanding: 24, Rate: 1, ReadFraction: 0.3, IssuePerCycle: 2, Retry: chi.RetryConfig{TimeoutCycles: 900, MaxRetries: 3}},
}

// BlockedCases are two deep open-loop requesters. On a half ring each
// one's replies pass the other's station, so a beat backlog can wait a
// whole cycle behind a full inject queue: the one sleep of a requester
// that draws every cycle, whose Tick must then return before it draws.
var BlockedCases = []traffic.RequesterConfig{RequesterCases[6], RequesterCases[6]}

// requesters gives each of cases a slow memory of its own, 256 B lines (a
// write queues a multi-beat burst behind its grant), on one ring, full or
// half: requester i at position stride·i, its memory stride/2 stations
// on.
func requesters(cases []traffic.RequesterConfig, stride int, full bool) func() *noc.Network {
	return func() *noc.Network {
		net := noc.NewNetwork("requesters")
		ring := net.AddRing(stride*len(cases), full)
		for i, cfg := range cases {
			ctl := mem.New(net, fmt.Sprintf("mem%d", i), mem.Config{AccessCycles: 40, BytesPerCycle: 8, QueueDepth: 4}, ring.AddStation(stride*i+stride/2))
			cfg.LineBytes = 256
			cfg.Stream = traffic.NewSeqStream(0, 256, 1<<20)
			cfg.TargetOf = traffic.FixedTarget(ctl.Node())
			traffic.NewRequester(net, fmt.Sprintf("req%d", i), cfg, sim.NewRNG(uint64(i+1)), ring.AddStation(stride*i))
		}
		net.MustFinalize()
		return net
	}
}

// l1EjectReserved joins a 48-position ring of three requesters to a ring
// of two memories through an RBRG-L1 with one-entry eject queues, so
// cross-ring flits deflect and wait on E-tags, and drops a flit every
// seven cycles. Some of the dropped flits hold an eject reservation, which
// passes to the oldest flit still waiting (purgeTagState promotes), so the
// E-tag hand-over runs under faults while the bridge sleeps and wakes
// beside reserved entries.
func l1EjectReserved() *noc.Network {
	net := noc.NewNetwork("l1-eject")
	a, b := net.AddRing(48, true), net.AddRing(12, true)
	cfg := noc.DefaultRBRGL1Config()
	cfg.InjectDepth, cfg.EjectDepth, cfg.ForwardPerCycle, cfg.DeadlockThreshold = 2, 1, 1, 4
	noc.NewRBRGL1(net, "x", cfg, a.AddStation(0), b.AddStation(0))
	mems := make([]noc.NodeID, 2)
	for i := range mems {
		mems[i] = mem.New(net, fmt.Sprintf("mem%d", i), mem.Config{AccessCycles: 10, BytesPerCycle: 32, QueueDepth: 8}, b.AddStation(4+4*i)).Node()
	}
	for i := 0; i < 3; i++ {
		rc := traffic.RequesterConfig{Outstanding: 8, Rate: 1, ReadFraction: 0.7, LineBytes: 64,
			Stream: traffic.NewSeqStream(uint64(i)<<20, 64, 1<<20), TargetOf: traffic.InterleavedTargetsBy(mems, 64)}
		traffic.NewRequester(net, fmt.Sprintf("req%d", i), rc, sim.NewRNG(uint64(i+1)), a.AddStation(2+2*i))
	}
	net.MustFinalize()
	var drops []fault.Event
	for at := uint64(100); at < 1200; at += 7 {
		drops = append(drops, fault.Event{At: at, Kind: fault.DropFlit})
	}
	return faulted(net, &fault.Schedule{Events: drops}, 0x5e5)
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
