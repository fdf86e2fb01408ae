package soc

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"chipletnoc/internal/coherence"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/noc"
)

// The golden determinism tests pin the cycle-level behaviour of the two
// evaluated systems: a fixed-seed run must always produce exactly these
// flit-level digests — injected/delivered/deflection/hop counters plus an
// FNV-1a hash over the per-flit delivery latencies in delivery order. Any
// change that silently alters cycle behaviour (tick ordering, routing,
// arbitration, RNG streams) fails these tests loudly instead of silently
// shifting every published number. If a change alters cycle behaviour on
// purpose, rerun `go test ./internal/soc -run TestGolden`: the failure
// message prints the new digest to adopt — update the golden constants
// and record the reason in the commit message.
type flitDigest struct {
	Injected    uint64
	Delivered   uint64
	Dropped     uint64
	Deflections uint64
	Hops        uint64
	Latencies   uint64 // number of latency samples folded into the hash
	LatencyFNV  uint64
}

// hashLatencies registers a latency recorder on net that folds every
// delivered flit's latency into an FNV-1a hash, in delivery order —
// delivery order is deterministic because the whole simulation is.
func hashLatencies(net *noc.Network) (count *uint64, sum func() uint64) {
	h := fnv.New64a()
	n := new(uint64)
	net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], cycles)
		h.Write(b[:])
		*n++
	})
	return n, h.Sum64
}

func digestNet(net *noc.Network, latencies *uint64, latencyFNV func() uint64) flitDigest {
	return flitDigest{
		Injected:    net.InjectedFlits,
		Delivered:   net.DeliveredFlits,
		Dropped:     net.DroppedFlits,
		Deflections: net.Deflections,
		Hops:        net.TotalHops,
		Latencies:   *latencies,
		LatencyFNV:  latencyFNV(),
	}
}

func checkDigest(t *testing.T, got, want flitDigest) {
	t.Helper()
	if got != want {
		t.Fatalf("flit digest drifted — cycle behaviour changed.\n got: %#v\nwant: %#v\n"+
			"If intentional, update the golden constants and record why.", got, want)
	}
}

// goldenServerBuild constructs the fixed Server-CPU scenario shared by
// the golden digest test and the instrumentation differential test:
// cores on both compute dies read M/E/S lines primed in the die-0
// directories. Run(4000) after this reproduces goldenServerDigest.
func goldenServerBuild() *ServerCPU {
	cfg := DefaultServerConfig()
	cfg.ClustersPerDie = 3
	s := BuildServerCPU(cfg, CoherentCores, nil)

	perDie := cfg.ClustersPerDie * cfg.CoresPerCluster
	owner := s.Cores[0]
	states := []coherence.State{coherence.Modified, coherence.Exclusive, coherence.Shared}
	var addrs []uint64
	for i := 0; len(addrs) < 24; i++ {
		addr := uint64(i) * 4096
		home := s.Homes.HomeOf(addr)
		if home >= cfg.ClustersPerDie {
			continue // keep every home on die 0
		}
		s.Dirs[home].SetLine(addr, states[len(addrs)%len(states)], owner.Node())
		addrs = append(addrs, addr)
	}
	// Half the reads come from a die-0 core, half from the other die.
	for i, a := range addrs {
		reader := s.Cores[2]
		if i%2 == 1 {
			reader = s.Cores[perDie+2]
		}
		reader.Read(a)
	}
	return s
}

// TestGoldenServerCPUDigest runs the fixed coherent-read scenario for a
// fixed cycle budget.
func TestGoldenServerCPUDigest(t *testing.T) {
	s := goldenServerBuild()
	latencies, latencyFNV := hashLatencies(s.Net)
	s.Run(4000)

	checkDigest(t, digestNet(s.Net, latencies, latencyFNV), goldenServerDigest)
}

// TestGoldenAIProcessorDigest runs the self-driving AI die (cores, DMA
// engines and the IO die all active from their fixed seeds) for a fixed
// cycle budget.
func TestGoldenAIProcessorDigest(t *testing.T) {
	a := goldenAIBuild()
	latencies, latencyFNV := hashLatencies(a.Net)
	a.Run(3000)

	checkDigest(t, digestNet(a.Net, latencies, latencyFNV), goldenAIDigest)
}

// goldenAIBuild is the fixed AI-Processor configuration shared by the
// golden tests: the plain digest, the fault-injection digest, and the
// empty-schedule inertness check all build exactly this system.
func goldenAIBuild() *AIProcessor { return BuildAIProcessor(QuickAIConfig()) }

// TestGoldenEmptyFaultScheduleIsInert attaches a fault injector with a
// completely empty schedule to the golden AI run: the digest must equal
// goldenAIDigest bit for bit. This is the guarantee that the whole fault
// subsystem is free when unused — merely wiring it up changes nothing.
func TestGoldenEmptyFaultScheduleIsInert(t *testing.T) {
	a := goldenAIBuild()
	if _, err := fault.NewInjector(a.Net, &fault.Schedule{}, 0x5e5); err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	latencies, latencyFNV := hashLatencies(a.Net)
	a.Run(3000)
	checkDigest(t, digestNet(a.Net, latencies, latencyFNV), goldenAIDigest)
}

// TestGoldenFaultInjectionDigest pins a fixed-seed fault run: the golden
// AI system with a watchdog armed, one bridge killed transiently and one
// flit dropped and corrupted mid-run. Kill/repair ordering, watchdog
// sweep timing, reroute decisions and the injector's victim RNG stream
// are all load-bearing here — any silent change to recovery behaviour
// shifts this digest.
func TestGoldenFaultInjectionDigest(t *testing.T) {
	a := goldenAIBuild()
	names := a.Net.BridgeNames()
	if len(names) == 0 {
		t.Fatal("golden AI build has no bridges")
	}
	sched := &fault.Schedule{
		WatchdogCycles: 1200,
		Events: []fault.Event{
			{At: 500, Kind: fault.KillBridge, Bridge: names[0], RepairAt: 1800},
			{At: 900, Kind: fault.DropFlit},
			{At: 1000, Kind: fault.CorruptFlit},
		},
	}
	inj, err := fault.NewInjector(a.Net, sched, 0x5e5)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	latencies, latencyFNV := hashLatencies(a.Net)
	a.Run(3000)
	if inj.Pending() != 0 {
		t.Fatalf("%d schedule events never fired", inj.Pending())
	}
	if err := a.Net.CheckConservation(); err != nil {
		t.Fatalf("conservation after fault run: %v", err)
	}
	checkDigest(t, digestNet(a.Net, latencies, latencyFNV), goldenAIFaultDigest)
}

// Golden values. Derived once from the committed simulator; every field
// is an integer so the digest is identical on every platform.
var (
	goldenServerDigest = flitDigest{
		Injected:    0x48,
		Delivered:   0x48,
		Deflections: 0x0,
		Hops:        0x100,
		Latencies:   0x48,
		LatencyFNV:  0xfa3f0fd12932a8ab,
	}
	goldenAIDigest = flitDigest{
		Injected:    0x30c3,
		Delivered:   0x2b41,
		Deflections: 0x46ae,
		Hops:        0x4c154,
		Latencies:   0x2b41,
		LatencyFNV:  0x16a68fe7dc337024,
	}
	goldenAIFaultDigest = flitDigest{
		Injected:    0x3066,
		Delivered:   0x2965,
		Dropped:     0x237,
		Deflections: 0x3c51,
		Hops:        0x45d68,
		Latencies:   0x2965,
		LatencyFNV:  0xf8e7ad4b7ecedac9,
	}
)
