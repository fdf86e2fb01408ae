package noc_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/coherence"
	"chipletnoc/internal/config"
	"chipletnoc/internal/fault"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/trace"
	"chipletnoc/internal/traffic"
)

// The gated-vs-forced-awake differential suite. Every reference system —
// the two paper SoCs, the quad-die package, the four declarative fabrics
// of internal/config's testdata, the serving fabric, healthy and under
// fault schedules — runs under the activity-gated engine and must equal
// the forced-awake engine (noc.Network.ForceAwake, test builds only) in
// flit counters, latency stream, metrics export, trace event
// stream and checkpoint bytes. The golden digests themselves stay pinned
// where they always were (internal/soc, internal/experiments); this
// suite proves the gate cannot be what moves them.

// system is one built reference system behind the few things the suite
// needs from it.
type system struct {
	net *noc.Network
	run func(cycles int)
	// extra is state the network's counters do not cover (the serving
	// orchestrator's completion stream); may be nil.
	extra func() string
	// checkpoint is nil for systems that cannot checkpoint (the serving
	// devices are attached).
	checkpoint func() ([]byte, error)
}

type outcome struct {
	counters, extra  string
	latFNV, traceFNV uint64
	metrics, ckpt    string
}

func observe(t *testing.T, s system, cycles int) outcome {
	t.Helper()
	reg := metrics.New(250)
	s.net.EnableMetrics(reg)
	tr := trace.New(1 << 17)
	s.net.Tracer = tr
	lat := fnv.New64a()
	s.net.RecordLatency(func(f *noc.Flit, c uint64) { fmt.Fprintf(lat, "%d|%d\n", f.ID, c) })
	s.run(cycles)
	if err := s.net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	n := s.net
	o := outcome{
		counters: fmt.Sprintf("inj=%d del=%d bytes=%d drop=%d defl=%d hops=%d rerouted=%d ticks=%d",
			n.InjectedFlits, n.DeliveredFlits, n.DeliveredBytes, n.DroppedFlits, n.Deflections, n.TotalHops, n.ReroutedFlits, n.Ticks()),
		latFNV: lat.Sum64(),
	}
	if s.extra != nil {
		o.extra = s.extra()
	}
	th := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(th, "%d|%d|%d|%s|%s\n", e.Cycle, e.Kind, e.FlitID, e.Where, e.Detail)
	}
	o.traceFNV = th.Sum64()
	var mb bytes.Buffer
	if err := reg.Snapshot("diff", uint64(cycles)).WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	o.metrics = mb.String()
	if s.checkpoint != nil {
		b, err := s.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		o.ckpt = string(b)
	}
	return o
}

func (o outcome) String() string {
	h := func(s string) uint64 { f := fnv.New64a(); f.Write([]byte(s)); return f.Sum64() }
	return fmt.Sprintf("%s %s lat=%x trace=%x metrics=%x ckpt=%x(%dB)",
		o.counters, o.extra, o.latFNV, o.traceFNV, h(o.metrics), h(o.ckpt), len(o.ckpt))
}

// diffGated runs build() forced awake and then gated, and returns the
// gated network for callers that assert on what was skipped.
func diffGated(t *testing.T, cycles int, build func() system) *noc.Network {
	t.Helper()
	ref := build()
	ref.net.ForceAwake()
	want := observe(t, ref, cycles)
	if n := ref.net; n.SkippedCycles+n.RingTicksSkipped+n.StationTicksSkipped+n.DeviceTicksSkipped != 0 {
		t.Fatal("forced-awake reference skipped work")
	}
	s := build()
	if got := observe(t, s, cycles); got != want {
		t.Errorf("gated engine diverged from forced-awake\n got: %v\nwant: %v", got, want)
	}
	return s.net
}

func serverSystem(s *soc.ServerCPU) system {
	return system{
		net: s.Net, run: s.Run,
		checkpoint: func() ([]byte, error) {
			var b bytes.Buffer
			err := s.WriteCheckpoint(&b, nil)
			return b.Bytes(), err
		},
	}
}

// TestGateDiffServerCPU: the coherent-read scenario of the soc golden
// test — M/E/S lines primed in die-0 directories, read from both compute
// dies. A handful of transactions on a large fabric: most rings and
// devices idle most cycles, and once the reads are answered the coherence
// agents' idle contracts let the clock jump the rest of the run.
func TestGateDiffServerCPU(t *testing.T) {
	seq := diffGated(t, 4000, func() system {
		cfg := soc.DefaultServerConfig()
		cfg.ClustersPerDie = 3
		s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
		perDie := cfg.ClustersPerDie * cfg.CoresPerCluster
		states := []coherence.State{coherence.Modified, coherence.Exclusive, coherence.Shared}
		var addrs []uint64
		for i := 0; len(addrs) < 24; i++ {
			addr := uint64(i) * 4096
			home := s.Homes.HomeOf(addr)
			if home >= cfg.ClustersPerDie {
				continue
			}
			s.Dirs[home].SetLine(addr, states[len(addrs)%len(states)], s.Cores[0].Node())
			addrs = append(addrs, addr)
		}
		for i, a := range addrs {
			reader := s.Cores[2]
			if i%2 == 1 {
				reader = s.Cores[perDie+2]
			}
			reader.Read(a)
		}
		return serverSystem(s)
	})
	if seq.DeviceTicksSkipped == 0 || seq.SkippedCycles == 0 {
		t.Errorf("server CPU skipped %d device ticks and jumped %d cycles; cores, directories and data slices sleep once the reads are done",
			seq.DeviceTicksSkipped, seq.SkippedCycles)
	}
}

// aiSystem is the AI die of this suite: a mesh of rings woven from
// RBRG-L1 intersections under saturating traffic.
func aiSystem() system {
	cfg := soc.DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 2
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 4
	cfg.HBMStacks, cfg.DMAEngines = 2, 2
	a := soc.BuildAIProcessor(cfg)
	return system{
		net: a.Net, run: a.Run,
		checkpoint: func() ([]byte, error) {
			var b bytes.Buffer
			err := a.WriteCheckpoint(&b, nil)
			return b.Bytes(), err
		},
	}
}

// faulted attaches a fault injector replaying sched to s.
func faulted(t *testing.T, s system, sched *fault.Schedule, seed uint64) system {
	t.Helper()
	if _, err := fault.NewInjector(s.net, sched, seed); err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return s
}

// deviceTicksSkipped returns the share of n's device-cycles so far in
// which the device was not ticked.
func deviceTicksSkipped(n *noc.Network) float64 {
	var ticks, skipped uint64
	for _, k := range n.DeviceTicksByKind() {
		ticks, skipped = ticks+k.Ticks, skipped+k.Skipped
	}
	if skipped != n.DeviceTicksSkipped {
		panic(fmt.Sprintf("device tick table counts %d skipped, the network %d", skipped, n.DeviceTicksSkipped))
	}
	return float64(skipped) / float64(ticks+skipped)
}

// stationTicksSkipped returns the share of n's station-cycles so far in
// which the station was not visited.
func stationTicksSkipped(n *noc.Network) float64 {
	stations := 0
	for _, r := range n.Rings() {
		stations += len(r.Stations())
	}
	return float64(n.StationTicksSkipped) / float64(n.Ticks()*uint64(stations))
}

// TestGateDiffAIProcessor: the AI die, healthy. Deflection-heavy traffic
// on short rings: almost half the station visits are needed (measured
// 56.3 % skipped).
func TestGateDiffAIProcessor(t *testing.T) {
	seq := diffGated(t, 3000, aiSystem)
	if seq.DeviceTicksSkipped == 0 {
		t.Error("AI processor skipped no device tick; a closed-loop requester sleeps on a full transaction table")
	}
	if got := stationTicksSkipped(seq); got < 0.45 {
		t.Errorf("AI processor skipped %.1f%% of its station ticks, want at least 45%%", 100*got)
	}
}

// TestGateDiffAIProcessorFaulted runs the AI die under the fault script of
// the soc golden fault run: an RBRG-L1 killed and repaired, a flit
// dropped, a flit corrupted, the watchdog sweeping. The injector is a
// node-less device polled at its slot; every fault operation finds some
// rings behind on rotation and some devices asleep.
func TestGateDiffAIProcessorFaulted(t *testing.T) {
	diffGated(t, 3000, func() system {
		s := aiSystem()
		return faulted(t, s, &fault.Schedule{
			WatchdogCycles: 1200,
			Events: []fault.Event{
				{At: 500, Kind: fault.KillBridge, Bridge: s.net.BridgeNames()[0], RepairAt: 1800},
				{At: 900, Kind: fault.DropFlit},
				{At: 1000, Kind: fault.CorruptFlit},
			},
		}, 0x5e5)
	})
}

// quadDie is the four-die Server-CPU of the benchmark's quad-die
// workloads at the given request rate, with clusters clusters per die
// (the benchmark builds 12) and the given ServerConfig.Seed.
func quadDie(rate float64, clusters int, seed uint64) *soc.ServerCPU {
	cfg := soc.DefaultServerConfig()
	cfg.Packages = 2
	cfg.ClustersPerDie = clusters
	cfg.Seed = seed
	return soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
		const line = 64
		return traffic.RequesterConfig{
			Outstanding:  16,
			Rate:         rate,
			ReadFraction: 0.7,
			LineBytes:    line,
			Stream:       traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
			TargetOf:     traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
		}
	})
}

// TestGateDiffQuadDie runs the quad-die package saturated (closed-loop
// requesters: each sleeps while its transaction table is full, but some
// flit is always in flight) and at a trickle (one request per core per
// thousand cycles: rings and bridges sleep, while the requesters draw
// their issue coin every cycle and so never do). Either way the clock
// never jumps.
func TestGateDiffQuadDie(t *testing.T) {
	for _, rate := range []float64{1, 0.001} {
		seq := diffGated(t, 3000, func() system { return serverSystem(quadDie(rate, 2, 0)) })
		if seq.SkippedCycles != 0 {
			t.Errorf("rate %v: quad-die jumped %d cycles", rate, seq.SkippedCycles)
		}
		// Measured 78.4 % saturated — two clusters a die leave 32 requesters,
		// asleep on full transaction tables, beside 16 memory controllers
		// and 11 bridges that mostly are not; TestGateSaysWhatItSkipped has
		// the benchmark's twelve — and 55.9 % at a trickle, where the
		// requesters never sleep and everything else nearly always does.
		if got, floor := deviceTicksSkipped(seq), map[float64]float64{1: 0.75, 0.001: 0.50}[rate]; got < floor {
			t.Errorf("rate %v: %.1f%% of device ticks skipped, want at least %.0f%%", rate, 100*got, 100*floor)
		}
		if rate < 1 && seq.RingTicksSkipped == 0 {
			t.Errorf("rate %v: no ring tick skipped on a nearly empty fabric", rate)
		}
		// Measured 80.6 % saturated (short rings: an arrival or a free slot
		// is rarely far away) and 99.4 % at a trickle.
		if got, floor := stationTicksSkipped(seq), map[float64]float64{1: 0.75, 0.001: 0.95}[rate]; got < floor {
			t.Errorf("rate %v: %.1f%% of station ticks skipped, want at least %.0f%%", rate, 100*got, 100*floor)
		}
	}
}

// TestGateDiffQuadDieFaulted kills and repairs an inter-package PA link
// (an RBRG-L2 with flits and credit pulses on its wire) mid-run on the
// saturated quad-die package, with the watchdog reaping what the dead
// bridge strands.
func TestGateDiffQuadDieFaulted(t *testing.T) {
	diffGated(t, 2500, func() system {
		s := serverSystem(quadDie(1, 2, 0))
		names := s.net.BridgeNames()
		return faulted(t, s, &fault.Schedule{
			WatchdogCycles: 900,
			Events: []fault.Event{
				{At: 700, Kind: fault.KillBridge, Bridge: names[len(names)-1], RepairAt: 1600},
			},
		}, 0x77)
	})
}

// TestGateDiffConfigFabrics runs the four declarative reference fabrics
// of internal/config's testdata — bridged multi-ring chain,
// mesh-of-rings, hub-and-spoke, and the mesh with a fault schedule
// (bridge kill and repair, flit drop and corruption, watchdog) — at
// their own request rates and throttled down to a trickle, where the
// faults land in a mostly sleeping fabric.
func TestGateDiffConfigFabrics(t *testing.T) {
	for _, name := range []string{"diff-multiring", "diff-mesh", "diff-hub", "diff-mesh-faults"} {
		doc, err := os.ReadFile(filepath.Join("..", "config", "testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, trickle := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trickle=%v", name, trickle), func(t *testing.T) {
				diffGated(t, 2500, func() system {
					spec, err := config.Parse(doc)
					if err != nil {
						t.Fatal(err)
					}
					if trickle {
						for i := range spec.Devices {
							if spec.Devices[i].Type == "requester" {
								spec.Devices[i].Rate = 0.004
							}
						}
					}
					sys, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					return system{
						net: sys.Net, run: sys.Run,
						checkpoint: func() ([]byte, error) {
							var b bytes.Buffer
							err := noc.WriteCheckpoint(&b, sys.Net, nil)
							return b.Bytes(), err
						},
					}
				})
			})
		}
	}
}

// TestFaultRunResumes crosses checkpoint ↔ resume with fail ↔ repair: the
// fault fabric (x00 killed at 400, a flit dropped at 700, one corrupted at
// 900, x00 repaired at 1200) is checkpointed at cycle 600 — bridge dead,
// drop, corruption and repair still owed — restored into a fresh build,
// again at 800 (the victim RNG has drawn once) and at 1000, and must end
// on the checkpoint bytes of the run nobody interrupted. Gated and forced
// awake.
func TestFaultRunResumes(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "config", "testdata", "diff-mesh-faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, awake := range []bool{false, true} {
		build := func() *config.System {
			spec, err := config.Parse(doc)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if awake {
				sys.Net.ForceAwake()
			}
			return sys
		}
		checkpoint := func(sys *config.System) []byte {
			var b bytes.Buffer
			if err := noc.WriteCheckpoint(&b, sys.Net, nil); err != nil {
				t.Fatalf("awake=%v: checkpoint at cycle %d: %v", awake, sys.Net.Ticks(), err)
			}
			return b.Bytes()
		}
		ref := build()
		ref.Run(1500)
		want := checkpoint(ref)

		sys := build()
		for _, at := range []int{600, 800, 1000} {
			sys.Run(at - int(sys.Net.Ticks()))
			blob := checkpoint(sys)
			sys = build()
			if _, err := noc.ReadCheckpoint(bytes.NewReader(blob), sys.Net); err != nil {
				t.Fatalf("awake=%v: restore at cycle %d: %v", awake, at, err)
			}
			if at == 600 && (len(sys.Net.FailedBridges()) != 1 || sys.Injector.Pending() != 3) {
				t.Fatalf("awake=%v: restored at 600 with %d failed bridges and %d events pending, want 1 and 3",
					awake, len(sys.Net.FailedBridges()), sys.Injector.Pending())
			}
		}
		sys.Run(1500 - int(sys.Net.Ticks()))
		if err := sys.Net.CheckConservation(); err != nil {
			t.Fatalf("awake=%v: %v", awake, err)
		}
		if got := checkpoint(sys); !bytes.Equal(got, want) {
			t.Errorf("awake=%v: resumed fault run ended on different checkpoint bytes (%d vs %d)", awake, len(got), len(want))
		}
	}
}

// servingSystem builds the default serving spec at one offered load.
func servingSystem(t *testing.T, load float64) (system, *serving.System) {
	t.Helper()
	spec, err := config.ParseServingSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.ApplyDefaults(true)
	spec.Loads = []float64{load}
	spec.Cycles = 20000
	sys, err := serving.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return system{
		net: sys.Net,
		run: func(int) { sys.Run() },
		extra: func() string {
			o := sys.Orch
			return fmt.Sprintf("admitted=%d completed=%d stalls=%d peak=%d stream=%x sketch=%x",
				o.Admitted, o.Completed, o.StallCycles(), o.PeakPending, o.StreamDigest(), o.Sketch.Digest())
		},
	}, sys
}

// TestGateDiffServing runs the default serving spec far below the knee
// (load 1: the fabric is empty most cycles and most of the run is
// jumped), at load 8, where the bookkeeping sleepers settle later —
// memory refills, bridge credit pulses and watermark stalls — interleave
// most, and at the top of the benchmark's sweep (load 24). The
// orchestrator's arrival draw-ahead, the engines' hand-delivered wakes
// and the polled node-less orchestrator are all on this path.
func TestGateDiffServing(t *testing.T) {
	for _, load := range []float64{1, 8, 24} {
		diffGated(t, 20000, func() system {
			s, _ := servingSystem(t, load)
			return s
		})
	}
}

// TestGateSaysWhatItSkipped pins the diagnostics on the two ends of the
// benchmark: the default serving spec at load 1 spends at least 30 % of
// its cycles in quiescent jumps (a jumped cycle counts every ring, station
// and device as skipped, so those counters are bounded below by it), the
// saturated quad-die package none at all — there the saving is in the
// station ticks. In between, at load 8, each kind of device is held to a
// floor on the share of its ticks skipped.
func TestGateSaysWhatItSkipped(t *testing.T) {
	s, sys := servingSystem(t, 1)
	s.run(0)
	n := sys.Net
	if float64(n.SkippedCycles) < 0.30*float64(n.Ticks()) {
		t.Errorf("serving at load 1 jumped %d of %d cycles, want at least 30%%", n.SkippedCycles, n.Ticks())
	}
	rings := uint64(len(n.Rings()))
	devices := uint64(3*len(sys.Engines) + 1) // engine, memory, bridge per die; the orchestrator
	if n.RingTicksSkipped < n.SkippedCycles*rings || n.RingTicksSkipped > n.Ticks()*rings {
		t.Errorf("%d ring ticks skipped over %d cycles (%d jumped) of %d rings", n.RingTicksSkipped, n.Ticks(), n.SkippedCycles, rings)
	}
	if n.DeviceTicksSkipped < n.SkippedCycles*devices {
		t.Errorf("%d device ticks skipped over %d jumped cycles of %d devices", n.DeviceTicksSkipped, n.SkippedCycles, devices)
	}
	if got, jumped := stationTicksSkipped(n), float64(n.SkippedCycles)/float64(n.Ticks()); got < jumped || got > 1 {
		t.Errorf("%.1f%% of station ticks skipped with %.1f%% of cycles jumped", 100*got, 100*jumped)
	}

	// Load 8, 20 000 cycles, skipped shares measured: memory controllers
	// 94.1 % (72.0 % while a filling bucket kept them awake), bridges
	// 76.7 % (71.7 % while a credit pulse woke them), engines 92.6 %, the
	// orchestrator 88.6 % (47.4 % while a watermark stall kept it awake).
	// Each floor sits just under its measurement.
	s, _ = servingSystem(t, 8)
	s.run(0)
	floors := map[string]float64{"mem.Controller": 0.93, "noc.RBRGL2": 0.75, "serving.Engine": 0.91, "serving.Orchestrator": 0.87}
	for _, k := range s.net.DeviceTicksByKind() {
		floor, ok := floors[k.Kind]
		if !ok {
			t.Errorf("serving at load 8 has devices of kind %s, which has no floor", k.Kind)
			continue
		}
		delete(floors, k.Kind)
		if got := float64(k.Skipped) / float64(k.Ticks+k.Skipped); got < floor {
			t.Errorf("serving at load 8 skipped %.1f%% of %s ticks, want at least %.0f%%", 100*got, k.Kind, 100*floor)
		}
	}
	for kind := range floors {
		t.Errorf("serving at load 8 has no devices of kind %s", kind)
	}

	q := quadDie(1, 12, 1) // one simulation of the benchmark's quad-die round
	q.Run(3000)
	if q.Net.SkippedCycles != 0 {
		t.Errorf("saturated quad-die jumped %d cycles", q.Net.SkippedCycles)
	}
	// Every slot is occupied, yet a station is needed on about one cycle in
	// eleven: when a flit gets off, a free slot reaches a blocked head, or
	// a head may still arm its I-tag (measured 90.9 % skipped; the arrival
	// calendar alone, without parked heads, leaves 69.0 %).
	if got := stationTicksSkipped(q.Net); got < 0.85 {
		t.Errorf("saturated quad-die skipped %.1f%% of its station ticks, want at least 85%%", 100*got)
	}
	// 192 requesters asleep on a full transaction table or behind a full
	// inject queue, 64 coherence agents with nothing to do; the memory
	// controllers and bridges do most of the ticking (measured 93.2 %:
	// 813 657 of 873 000; 81.3 % before the inject-space wake).
	if got := deviceTicksSkipped(q.Net); got < 0.90 {
		t.Errorf("saturated quad-die skipped %.1f%% of its device ticks, want at least 90%%", 100*got)
	}
}
