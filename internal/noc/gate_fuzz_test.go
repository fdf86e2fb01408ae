package noc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// FuzzGateEquivalence drives the tick engine across arbitrary (link
// latency, idle gaps, fault timing, fabric mode) inputs and requires
// bit-identity with the reference engine every time. The reference is the
// same engine with the activity gate forced open — every ring, station
// and device ticked every cycle, no jumps: correctness must not depend on
// what was skipped, only on honest idle bounds and an honest visit set.
// The traffic arrives in bursts with fuzzed gaps, so whole stretches are
// jumped, and the fault script (bridge kill and repair, station stall,
// flit drop) lands wherever the fuzzer puts it — inside those stretches
// included. The mode word adds the transitions of the station-level gate:
// sinks that stop draining for a stretch (the rings fill, heads stay
// blocked for laps, I-tags and E-tags arm, stations park), a ring longer
// than one mask word, the congestion throttle, I-tags switched off, a
// second bridge beside the one the script kills (live flits are rerouted
// instead of stranded), a sender with a backlog deeper than its inject
// queue and a retry deadline (asleep on a refused Send until the station
// takes its head or the deadline comes), and a checkpoint taken mid-run
// and resumed in a second network under either engine.
func FuzzGateEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint16(0), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(120), uint16(0))
	f.Add(uint8(0), uint8(4), uint16(77), uint16(0))
	f.Add(uint8(1), uint8(2), uint16(300), uint16(0))
	f.Add(uint8(5), uint8(8), uint16(0), uint16(0))         // 25-cycle gaps, no faults
	f.Add(uint8(7), uint8(3), uint16(1031), uint16(0))      // 49-cycle gaps, kill + stall + drop
	f.Add(uint8(4), uint8(6), uint16(2*300+250), uint16(0)) // 16-cycle gaps, late kill + drop
	for _, s := range gateFuzzSeeds {
		f.Add(s.gapRoot, s.linkLat, s.faultAt, s.mode)
	}
	f.Fuzz(func(t *testing.T, gapRoot, linkLat uint8, faultAt, mode uint16) {
		fuzzEquivalence(t, gapRoot, linkLat, faultAt, mode, false)
	})
}

// gateFuzzSeeds are the corpus entries that land a transition of the
// station-level gate; TestGateFuzzSeedsLandTheirTransitions keeps each
// one honest about it.
var gateFuzzSeeds = []struct {
	name             string
	gapRoot, linkLat uint8
	faultAt, mode    uint16
	lands            func(h fuzzHits) bool
}{
	{"sinks paused 200 cycles: the rings fill and stations park", 0, 3, 0, fuzzMode(0, 5, 1, 0),
		func(h fuzzHits) bool { return h.parked }},
	{"the same on the 66-position ring: a station parks in the second mask word", 0, 2, 0, fuzzMode(fuzzLong|fuzzTwin, 3, 0, 0),
		func(h fuzzHits) bool { return h.parked && h.parkedBeyondWord }},
	{"throttle on, sinks paused", 1, 2, 0, fuzzMode(fuzzThrottle, 4, 0, 0),
		func(h fuzzHits) bool { return h.throttled }},
	{"I-tags off, sinks paused: every blocked head is parked", 0, 4, 0, fuzzMode(fuzzNoITag, 5, 1, 0),
		func(h fuzzHits) bool { return h.parked }},
	{"stall lands on a parked station", 0, 2, 300 + 50, fuzzMode(0, 3, 0, 0),
		func(h fuzzHits) bool { return h.stalledParked }},
	{"bridge kill reroutes a flit riding a slot", 0, 0, 4, fuzzMode(fuzzLong|fuzzTwin, 2, 0, 0),
		func(h fuzzHits) bool { return h.reroutedOnSlot }},
	{"drop takes the flit an armed I-tag rides on", 0, 2, 70*300 + 40, fuzzMode(0, 3, 0, 0),
		func(h fuzzHits) bool { return h.droppedTagged }},
	{"a backlog behind a full inject queue sleeps towards its retry deadline", 0, 3, 0, fuzzMode(fuzzBacklog, 5, 1, 0),
		func(h fuzzHits) bool { return h.blockedTimed }},
	{"the same with a fault script, checkpointed and resumed", 3, 2, 300 + 50, fuzzMode(fuzzBacklog, 4, 0, 3),
		func(h fuzzHits) bool { return h.blockedTimed }},
	{"checkpoint with stations parked, resumed under both engines", 0, 2, 0, fuzzMode(0, 3, 0, 2),
		func(h fuzzHits) bool { return h.checkpointParked }},
	{"the same under a fault script and the throttle, on the long ring", 0, 2, 300 + 50, fuzzMode(fuzzLong|fuzzThrottle|fuzzTwin, 3, 0, 2),
		func(h fuzzHits) bool { return h.checkpointParked }},
}

// The flags of FuzzGateEquivalence's mode word. Above them: bits 3-5 how
// long the sinks pause (in 40-cycle units, 0 = never), bits 6-8 when
// (15-cycle units after cycle 10), bits 9-11 where to checkpoint (60-cycle
// units, 0 = nowhere).
const (
	fuzzLong     = 1 << 0  // the middle ring spans two mask words
	fuzzThrottle = 1 << 1  // congestion throttle on
	fuzzNoITag   = 1 << 2  // I-tags off
	fuzzTwin     = 1 << 12 // a second bridge beside the one the script kills
	fuzzBacklog  = 1 << 13 // the middle ring's source has a deep backlog and a retry deadline
)

// fuzzMode packs a mode word.
func fuzzMode(flags, pauseFor, pauseAt, ckptAt uint16) uint16 {
	return flags | pauseFor&7<<3 | pauseAt&7<<6 | ckptAt&7<<9
}

// fuzzEquivalence is one fuzz execution: the forced-awake reference
// against the gated engine, and — when the mode asks for a checkpoint —
// against a gated run checkpointed there and resumed in a second network,
// gated and forced awake. sample makes the gated runs stop after every
// cycle to look for parked stations (fuzzHits.parked*), which rules
// quiescent jumps out; the fuzzer runs without it.
func fuzzEquivalence(t *testing.T, gapRoot, linkLat uint8, faultAt, mode uint16, sample bool) fuzzHits {
	t.Helper()
	c := fuzzCase{
		sample:    sample,
		linkLat:   1 + int(linkLat%10), // 1..10 cycle link pipelines
		faultAt:   faultAt,
		gap:       int(gapRoot%8) * int(gapRoot%8), // 0..49 cycles between bursts
		long:      mode&fuzzLong != 0,
		throttle:  mode&fuzzThrottle != 0,
		noITag:    mode&fuzzNoITag != 0,
		twin:      mode&fuzzTwin != 0,
		backlog:   mode&fuzzBacklog != 0,
		pauseFor:  sim.Cycle(mode>>3&7) * 40,
		pauseAt:   10 + sim.Cycle(mode>>6&7)*15,
		forceWake: true,
	}
	ref, _ := fuzzRun(t, c)
	c.forceWake = false
	gated, hits := fuzzRun(t, c)
	if gated != ref {
		t.Fatalf("gated engine diverged from forced-awake (%+v)\n got: %+v\nwant: %+v", c, gated, ref)
	}
	if c.ckptAt = int(mode>>9&7) * 60; c.ckptAt > 0 {
		for _, force := range []bool{false, true} {
			c.resumeForce = force
			resumed, h := fuzzRun(t, c)
			if resumed != ref {
				t.Fatalf("run checkpointed at %d and resumed (forced awake: %v) diverged (%+v)\n got: %+v\nwant: %+v",
					c.ckptAt, force, c, resumed, ref)
			}
			hits.checkpointParked = hits.checkpointParked || h.checkpointParked
		}
	}
	return hits
}

// TestGateFuzzSeedsLandTheirTransitions runs the named corpus entries and
// requires each to reach the transition it is named for, so a change to
// the rig cannot quietly turn them into ordinary inputs.
func TestGateFuzzSeedsLandTheirTransitions(t *testing.T) {
	for _, s := range gateFuzzSeeds {
		if h := fuzzEquivalence(t, s.gapRoot, s.linkLat, s.faultAt, s.mode, true); !s.lands(h) {
			t.Errorf("%s: not reached (%+v)", s.name, h)
		}
	}
}

// fuzzCase selects the engine and the input of one fuzzRun.
type fuzzCase struct {
	forceWake bool // the reference engine: nothing gated, nothing jumped
	linkLat   int
	faultAt   uint16 // 0: no fault script
	gap       int    // idle cycles between traffic bursts
	long      bool   // the middle ring has 66 positions, stations both sides of position 64
	throttle  bool
	noITag    bool
	twin      bool // a second bridge between the middle and the last ring
	backlog   bool // src1 starts with 40 flits queued and re-issues one every 35 cycles
	// The sinks drain nothing in [pauseAt, pauseAt+pauseFor).
	pauseAt, pauseFor sim.Cycle
	// ckptAt > 0: checkpoint after that many cycles and finish the run in
	// a second network restored from the bytes, forced awake if
	// resumeForce.
	ckptAt      int
	resumeForce bool
	sample      bool // stop after every cycle to record which stations are parked
}

// fuzzDigest is everything a run must reproduce bit for bit. ifaceFNV
// folds every interface's injected, ejected, deflected, starved and
// consecutive-defeat counts — the last two are what a parked station
// counts lazily; ckptFNV is the final checkpoint, the rest of the state.
type fuzzDigest struct {
	injected, delivered, dropped uint64
	deflections, hops            uint64
	latFNV, traceFNV             uint64
	ifaceFNV, ckptFNV            uint64
	delivered0, delivered2       int
}

// fuzzHits records which transitions of the station-level gate a gated
// run went through. Not part of the digest.
type fuzzHits struct {
	parked           bool // a station ended a cycle parked
	parkedBeyondWord bool // ... at a position past the first mask word
	throttled        bool // the throttle forfeited an injection opportunity
	stalledParked    bool // StallStation hit a parked station
	reroutedOnSlot   bool // a bridge kill or repair changed the exit of a flit on a slot
	droppedTagged    bool // DropLiveFlit emptied a slot carrying an armed I-tag
	checkpointParked bool // a checkpoint was taken with a station parked
	blockedTimed     bool // a source slept on a refused Send towards its retry deadline
}

// fuzzFaulter is an in-package stand-in for the fault injector: a
// node-less IdleUntiler device replaying a fixed script of fault
// operations — bridge kill and repair, station stall, live-flit drop —
// exercising jumps that must land on event cycles and fault operations
// that find rings and devices skipped (their rotation behind, their wakes
// in the future) and stations parked.
type fuzzFaulter struct {
	net   *Network
	node  NodeID
	steps []faultStep // sorted by at
	next  int
	hits  *fuzzHits
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

func (ff *fuzzFaulter) SnapState(s *Snap) { sim.Int(s.Codec, &ff.next) }

func (ff *fuzzFaulter) IdleUntil(now sim.Cycle) sim.Cycle {
	if ff.next == len(ff.steps) {
		return Never
	}
	if at := ff.steps[ff.next].at; at > now {
		return at
	}
	return now
}

// parkedOnly reports whether st is in its ring's visit set only when a
// free slot comes by.
func parkedOnly(st *CrossStation) bool {
	set, bit := st.ring.stationSet[st.pos>>6], uint64(1)<<(uint(st.pos)&63)
	return set.busy&bit == 0 && (set.parked[CW]|set.parked[CCW])&bit != 0
}

// slotExits lists the exit of every occupied slot, in scan order.
func slotExits(n *Network) (exits []int32) {
	n.syncRings()
	for _, r := range n.rings {
		for _, l := range []*loop{&r.cw, &r.ccw} {
			for p := range l.slots {
				if s := l.at(p); s.flit != nil {
					exits = append(exits, s.dst)
				}
			}
		}
	}
	return exits
}

func (ff *fuzzFaulter) Tick(now sim.Cycle) {
	for ff.next < len(ff.steps) && ff.steps[ff.next].at <= now {
		st := ff.steps[ff.next]
		ff.next++
		switch st.kind {
		case faultKill, faultRepair:
			before := slotExits(ff.net)
			if st.kind == faultKill {
				ff.net.FailBridge(ff.node)
			} else {
				ff.net.RepairBridge(ff.node)
			}
			for i, exit := range slotExits(ff.net) {
				ff.hits.reroutedOnSlot = ff.hits.reroutedOnSlot || exit != before[i]
			}
		case faultStall:
			stations := ff.net.rings[1].stations
			victim := stations[st.arg%len(stations)]
			ff.hits.stalledParked = ff.hits.stalledParked || parkedOnly(victim)
			ff.net.StallStation(1, victim.pos, 5+st.arg)
		case faultDrop:
			// No victim when the fabric is empty: a no-op.
			if s, _, _, _ := ff.net.nthLiveSlot(st.arg); s != nil && s.itagOwner != noTag {
				ff.hits.droppedTagged = true
			}
			ff.net.DropLiveFlit(st.arg)
		}
	}
}

// newFuzzFaulter derives the script from the fuzz input: always a kill at
// 20 + faultAt%300 with a repair 60 cycles later, plus — keyed off the
// bits above — a station stall and a flit drop some cycles after the
// kill.
func newFuzzFaulter(net *Network, node NodeID, faultAt uint16, hits *fuzzHits) *fuzzFaulter {
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
	return &fuzzFaulter{net: net, node: node, steps: steps, hits: hits}
}

// fuzzRig is one built instance of the fuzz fabric.
type fuzzRig struct {
	net        *Network
	src1       *source
	snk0, snk2 *sink
}

// buildFuzzRig builds a three-die chain (full ring — full ring — half
// ring, two RBRG-L2 bridges at the fuzzed link latency) with fixed cross-
// and intra-die traffic queued in bursts c.gap cycles apart. faultAt > 0
// schedules the fault script through a fuzzFaulter. Identical cases build
// identical rigs.
func buildFuzzRig(t *testing.T, c fuzzCase, hits *fuzzHits) fuzzRig {
	t.Helper()
	net := NewNetwork("fuzz")
	net.ITagEnabled = !c.noITag
	// The middle ring's stations: source, sink, the bridge legs towards the
	// last ring. On the long ring everything bound for the sink travels
	// clockwise, so a paused sink fills that loop and blocks the source at
	// position 65, in the second mask word.
	r1n, r1src, r1snk, r1br12, r1twin := 8, 2, 6, 5, 3
	if c.long {
		r1n, r1src, r1snk, r1br12, r1twin = 66, 65, 20, 40, 50
	}
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(r1n, true)
	r2 := net.AddRing(6, false)
	src0 := newSource(t, net, r0.AddStation(0), "src0")
	snk0 := newSink(t, net, r0.AddStation(3), "snk0", 2)
	src1 := newSource(t, net, r1.AddStation(r1src), "src1")
	snk1 := newSink(t, net, r1.AddStation(r1snk), "snk1", 2)
	src2 := newSource(t, net, r2.AddStation(2), "src2")
	snk2 := newSink(t, net, r2.AddStation(4), "snk2", 2)
	for _, s := range []*sink{snk0, snk1, snk2} {
		s.pauseFrom, s.pauseUntil = c.pauseAt, c.pauseAt+c.pauseFor
	}
	cfg := DefaultRBRGL2Config()
	cfg.LinkLatency = c.linkLat
	NewRBRGL2(net, "br01", cfg, r0.AddStation(5), r1.AddStation(0))
	NewRBRGL2(net, "br12", cfg, r1.AddStation(r1br12), r2.AddStation(0))
	if c.twin {
		NewRBRGL2(net, "br12b", cfg, r1.AddStation(r1twin), r2.AddStation(3))
	}
	if c.faultAt > 0 {
		node, ok := net.NodeByName("br12")
		if !ok {
			t.Fatal("bridge node missing")
		}
		net.AddDevice(newFuzzFaulter(net, node, c.faultAt, hits))
		net.SetWatchdog(150, 0)
	}
	if c.throttle {
		// A short window and a low threshold, so a few deflections at a
		// paused sink are enough to start forfeiting opportunities.
		net.SetThrottle(ThrottleConfig{Enabled: true, WindowCycles: 16, DeflectionsPerKCycle: 40, SkipNumerator: 1, SkipDenominator: 3})
	}
	net.MustFinalize()

	// Fixed traffic: cross-die in both directions plus local pairs, one
	// burst every c.gap cycles.
	for i := 0; i < 30; i++ {
		at := sim.Cycle(i * c.gap)
		src0.queueAt(net.NewFlit(src0.Node(), snk2.Node(), KindData, LineBytes), at)
		src2.queueAt(net.NewFlit(src2.Node(), snk0.Node(), KindData, LineBytes), at)
		src1.queueAt(net.NewFlit(src1.Node(), snk1.Node(), KindData, LineBytes), at)
		src0.queueAt(net.NewFlit(src0.Node(), snk1.Node(), KindData, LineBytes), at)
	}
	if c.backlog {
		// Deeper than the inject queue, all due at once, and a deadline that
		// keeps adding: with the sinks paused src1 sits behind a full queue.
		for i := 0; i < 40; i++ {
			src1.queue(net.NewFlit(src1.Node(), snk1.Node(), KindData, LineBytes))
		}
		src1.retries, src1.retryEvery, src1.deadline, src1.retryDst = 8, 35, 35, snk2.Node()
	}
	return fuzzRig{net, src1, snk0, snk2}
}

// anyParked reports whether some station of n is parked, and whether one
// of them sits past the first mask word.
func anyParked(n *Network) (parked, beyondWord bool) {
	for _, r := range n.rings {
		for _, st := range r.stations {
			if parkedOnly(st) {
				parked = true
				beyondWord = beyondWord || st.pos >= 64
			}
		}
	}
	return parked, beyondWord
}

// fuzzRun builds the rig, runs it 500 cycles — through a checkpoint and a
// second network if the case says so — and digests the result. The
// latency and trace observers span both networks, so a resumed run's
// streams are the whole run's.
func fuzzRun(t *testing.T, c fuzzCase) (fuzzDigest, fuzzHits) {
	t.Helper()
	const cycles = 500
	var hits fuzzHits
	rig := buildFuzzRig(t, c, &hits)
	net := rig.net
	net.forceAwake = c.forceWake

	tr := trace.New(1 << 14)
	latHash := fnv.New64a()
	observe := func(n *Network) {
		n.Tracer = tr
		n.RecordLatency(func(f *Flit, cycles uint64) {
			fmt.Fprintf(latHash, "%d|%d\n", f.ID, cycles)
		})
	}
	observe(net)

	run := func(n *Network, k int) {
		if !c.sample || n.forceAwake {
			n.Run(k)
			return
		}
		for ; k > 0; k-- {
			n.Run(1)
			parked, beyond := anyParked(n)
			hits.parked = hits.parked || parked
			hits.parkedBeyondWord = hits.parkedBeyondWord || beyond
		}
	}
	if c.ckptAt > 0 {
		run(net, c.ckptAt)
		hits.checkpointParked, _ = anyParked(net)
		var ckpt bytes.Buffer
		if err := WriteCheckpoint(&ckpt, net, nil); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		rig = buildFuzzRig(t, c, &hits)
		net = rig.net
		if _, err := ReadCheckpoint(&ckpt, net); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		net.forceAwake = c.resumeForce
		observe(net)
		run(net, cycles-c.ckptAt)
	} else {
		run(net, cycles)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if net.forceAwake && net.SkippedCycles+net.RingTicksSkipped+net.StationTicksSkipped+net.DeviceTicksSkipped != 0 {
		t.Fatalf("forced-awake reference skipped something: %d cycles, %d ring ticks, %d station ticks, %d device ticks",
			net.SkippedCycles, net.RingTicksSkipped, net.StationTicksSkipped, net.DeviceTicksSkipped)
	}
	if t := net.throttle; t != nil {
		hits.throttled = t.opportunitySeq > 0
	}
	hits.blockedTimed = rig.src1.blockedTimed > 0

	traceHash := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(traceHash, "%d|%d|%d|%s|%s\n", e.Cycle, e.Kind, e.FlitID, e.Where, e.Detail)
	}
	ifaceHash := fnv.New64a()
	for _, s := range net.InterfaceReport() {
		// The report settles every station; injectFails is not in it.
		ni := net.nodes[s.Node].on(s.Ring)
		fmt.Fprintf(ifaceHash, "%s|%d|%d|%d|%d|%d|%d\n", s.Name, s.Ring, s.Injected, s.EjectedFlits, s.Deflected, s.Starved, ni.injectFails)
	}
	var final bytes.Buffer
	if err := WriteCheckpoint(&final, net, nil); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return fuzzDigest{
		injected:    net.InjectedFlits,
		delivered:   net.DeliveredFlits,
		dropped:     net.DroppedFlits,
		deflections: net.Deflections,
		hops:        net.TotalHops,
		latFNV:      latHash.Sum64(),
		traceFNV:    traceHash.Sum64(),
		ifaceFNV:    ifaceHash.Sum64(),
		ckptFNV:     sim.FNV1a(final.Bytes()),
		delivered0:  len(rig.snk0.got),
		delivered2:  len(rig.snk2.got),
	}, hits
}
