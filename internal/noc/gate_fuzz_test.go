package noc

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// FuzzGateEquivalence drives the tick engine across arbitrary (link
// latency, idle gaps, fault timing) inputs and requires bit-identity with
// the reference engine every time. The reference is the same engine with
// the activity gate forced open — every ring and device ticked every
// cycle, no jumps: correctness must not depend on what was skipped, only
// on honest idle bounds. The traffic arrives in bursts with fuzzed gaps,
// so whole stretches are jumped, and the fault script (bridge kill and
// repair, station stall, flit drop) lands wherever the fuzzer puts it —
// inside those stretches included.
func FuzzGateEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(120))
	f.Add(uint8(0), uint8(4), uint16(77))
	f.Add(uint8(1), uint8(2), uint16(300))
	f.Add(uint8(5), uint8(8), uint16(0))         // 25-cycle gaps, no faults
	f.Add(uint8(7), uint8(3), uint16(1031))      // 49-cycle gaps, kill + stall + drop
	f.Add(uint8(4), uint8(6), uint16(2*300+250)) // 16-cycle gaps, late kill + drop
	f.Fuzz(func(t *testing.T, gapRoot, linkLat uint8, faultAt uint16) {
		c := fuzzCase{
			linkLat:   1 + int(linkLat%10), // 1..10 cycle link pipelines
			faultAt:   faultAt,
			gap:       int(gapRoot%8) * int(gapRoot%8), // 0..49 cycles between bursts
			forceWake: true,
		}
		ref := fuzzRun(t, c)
		c.forceWake = false
		if gated := fuzzRun(t, c); gated != ref {
			t.Fatalf("gated engine diverged from forced-awake (%+v)\n got: %+v\nwant: %+v", c, gated, ref)
		}
	})
}

// fuzzCase selects the engine and the input of one fuzzRun.
type fuzzCase struct {
	forceWake bool // the reference engine: nothing gated, nothing jumped
	linkLat   int
	faultAt   uint16 // 0: no fault script
	gap       int    // idle cycles between traffic bursts
}

// fuzzDigest is everything a run must reproduce bit for bit.
type fuzzDigest struct {
	injected, delivered, dropped uint64
	deflections, hops            uint64
	latFNV, traceFNV             uint64
	delivered0, delivered2       int
}

// fuzzFaulter is an in-package stand-in for the fault injector: a
// node-less IdleUntiler device replaying a fixed script of fault
// operations — bridge kill and repair, station stall, live-flit drop —
// exercising jumps that must land on event cycles and fault operations
// that find rings and devices skipped (their rotation behind, their wakes
// in the future).
type fuzzFaulter struct {
	net   *Network
	node  NodeID
	steps []faultStep // sorted by at
	next  int
}

type faultStep struct {
	at   sim.Cycle
	kind int // faultKill, faultRepair, faultStall, faultDrop
	arg  int
}

const (
	faultKill = iota
	faultRepair
	faultStall
	faultDrop
)

func (ff *fuzzFaulter) Name() string { return "fuzz-faulter" }

func (ff *fuzzFaulter) IdleUntil(now sim.Cycle) sim.Cycle {
	if ff.next == len(ff.steps) {
		return Never
	}
	if at := ff.steps[ff.next].at; at > now {
		return at
	}
	return now
}

func (ff *fuzzFaulter) Tick(now sim.Cycle) {
	for ff.next < len(ff.steps) && ff.steps[ff.next].at <= now {
		st := ff.steps[ff.next]
		ff.next++
		switch st.kind {
		case faultKill:
			ff.net.FailBridge(ff.node)
		case faultRepair:
			ff.net.RepairBridge(ff.node)
		case faultStall:
			stations := ff.net.rings[1].stations
			ff.net.StallStation(1, stations[st.arg%len(stations)].pos, 5+st.arg)
		case faultDrop:
			ff.net.DropLiveFlit(st.arg) // no victim when the fabric is empty: a no-op
		}
	}
}

// newFuzzFaulter derives the script from the fuzz input: always a kill at
// 20 + faultAt%300 with a repair 60 cycles later, plus — keyed off the
// bits above — a station stall and a flit drop some cycles after the
// kill.
func newFuzzFaulter(net *Network, node NodeID, faultAt uint16) *fuzzFaulter {
	kill := sim.Cycle(20 + faultAt%300)
	sel := int(faultAt / 300)
	steps := []faultStep{{kill, faultKill, 0}, {kill + 60, faultRepair, 0}}
	if sel&1 != 0 {
		steps = append(steps, faultStep{kill + sim.Cycle(13*(sel>>2&7)), faultStall, sel >> 5})
	}
	if sel&2 != 0 {
		steps = append(steps, faultStep{kill + sim.Cycle(9*(sel>>2&7)+3), faultDrop, sel >> 6})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	return &fuzzFaulter{net: net, node: node, steps: steps}
}

// fuzzRun builds a three-die chain (full ring — full ring — half ring,
// two RBRG-L2 bridges at the fuzzed link latency), drives fixed cross-
// and intra-die traffic in bursts c.gap cycles apart, and digests the
// result. faultAt > 0 schedules the fault script through a fuzzFaulter.
func fuzzRun(t *testing.T, c fuzzCase) fuzzDigest {
	t.Helper()
	net := NewNetwork("fuzz")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(8, true)
	r2 := net.AddRing(6, false)
	src0 := newSource(t, net, r0.AddStation(0), "src0")
	snk0 := newSink(t, net, r0.AddStation(3), "snk0", 2)
	src1 := newSource(t, net, r1.AddStation(2), "src1")
	snk1 := newSink(t, net, r1.AddStation(6), "snk1", 2)
	src2 := newSource(t, net, r2.AddStation(2), "src2")
	snk2 := newSink(t, net, r2.AddStation(4), "snk2", 2)
	cfg := DefaultRBRGL2Config()
	cfg.LinkLatency = c.linkLat
	NewRBRGL2(net, "br01", cfg, r0.AddStation(5), r1.AddStation(0))
	NewRBRGL2(net, "br12", cfg, r1.AddStation(5), r2.AddStation(0))
	if c.faultAt > 0 {
		node, ok := net.NodeByName("br12")
		if !ok {
			t.Fatal("bridge node missing")
		}
		net.AddDevice(newFuzzFaulter(net, node, c.faultAt))
		net.SetWatchdog(150, 0)
	}
	net.MustFinalize()
	net.forceAwake = c.forceWake

	tr := trace.New(1 << 14)
	net.Tracer = tr
	latHash := fnv.New64a()
	net.RecordLatency(func(f *Flit, cycles uint64) {
		fmt.Fprintf(latHash, "%d|%d\n", f.ID, cycles)
	})

	// Fixed traffic: cross-die in both directions plus local pairs, one
	// burst every c.gap cycles.
	for i := 0; i < 30; i++ {
		at := sim.Cycle(i * c.gap)
		src0.queueAt(net.NewFlit(src0.Node(), snk2.Node(), KindData, LineBytes), at)
		src2.queueAt(net.NewFlit(src2.Node(), snk0.Node(), KindData, LineBytes), at)
		src1.queueAt(net.NewFlit(src1.Node(), snk1.Node(), KindData, LineBytes), at)
		src0.queueAt(net.NewFlit(src0.Node(), snk1.Node(), KindData, LineBytes), at)
	}

	net.Run(500)
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if c.forceWake && net.SkippedCycles+net.RingTicksSkipped+net.DeviceTicksSkipped != 0 {
		t.Fatalf("forced-awake reference skipped something: %d cycles, %d ring ticks, %d device ticks",
			net.SkippedCycles, net.RingTicksSkipped, net.DeviceTicksSkipped)
	}

	traceHash := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(traceHash, "%d|%d|%d|%s|%s\n", e.Cycle, e.Kind, e.FlitID, e.Where, e.Detail)
	}
	return fuzzDigest{
		injected:    net.InjectedFlits,
		delivered:   net.DeliveredFlits,
		dropped:     net.DroppedFlits,
		deflections: net.Deflections,
		hops:        net.TotalHops,
		latFNV:      latHash.Sum64(),
		traceFNV:    traceHash.Sum64(),
		delivered0:  len(snk0.got),
		delivered2:  len(snk2.got),
	}
}
