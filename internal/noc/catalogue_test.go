package noc_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/noctest"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// The catalogue harnesses: every system of noctest.Catalogue runs under
// each of them the same way (state-walk field coverage is the fourth, in
// fieldcoverage_test.go).
//
//   - TestCatalogueGateDiff: the activity-gated engine must equal the
//     forced-awake reference (Network.ForceAwake, test builds only) in
//     flit counters, latency stream, metrics export, trace event stream
//     and checkpoint bytes, which hold every device's whole state; the
//     reference run carries the idle-honesty probe, and the gated run is
//     held to the floors of skipFloors.
//   - TestCatalogueResume: checkpointed at cycle 1, at each At cycle and on
//     a quiescent jump's landing cycle, restored into a fresh build each
//     time, a run ends on the uninterrupted run's bytes.
//   - FuzzCatalogueRestore: a patched and resealed checkpoint of any entry
//     is refused as corrupt, or it round-trips and runs.
//
// The golden digests themselves stay pinned where they always were
// (internal/soc, internal/experiments); these prove the gate, a restore
// or a hostile file cannot be what moves them.

type outcome struct {
	counters         string
	latFNV, traceFNV uint64
	metrics, ckpt    string
}

func (o outcome) String() string {
	h := func(s string) uint64 { f := fnv.New64a(); f.Write([]byte(s)); return f.Sum64() }
	return fmt.Sprintf("%s lat=%x trace=%x metrics=%x ckpt=%x(%dB)",
		o.counters, o.latFNV, o.traceFNV, h(o.metrics), h(o.ckpt), len(o.ckpt))
}

// observe runs n for cycles — through p's probed cycles when p is not
// nil — with a metrics registry, a tracer and a latency recorder attached,
// and renders what it did.
func observe(t *testing.T, n *noc.Network, cycles int, p *prober) outcome {
	t.Helper()
	reg := metrics.New(250)
	n.EnableMetrics(reg)
	tr := trace.New(1 << 17)
	n.Tracer = tr
	lat := fnv.New64a()
	n.RecordLatency(func(f *noc.Flit, c uint64) { fmt.Fprintf(lat, "%d|%d\n", f.ID, c) })
	if p != nil {
		p.run(t, n, cycles)
	} else {
		n.Run(cycles)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	o := outcome{
		counters: fmt.Sprintf("inj=%d del=%d bytes=%d drop=%d defl=%d hops=%d rerouted=%d ticks=%d",
			n.InjectedFlits, n.DeliveredFlits, n.DeliveredBytes, n.DroppedFlits, n.Deflections, n.TotalHops, n.ReroutedFlits, n.Ticks()),
		latFNV: lat.Sum64(),
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
	b, err := noc.EncodeCheckpoint(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.ckpt = string(b)
	return o
}

// prober is the idle-honesty probe, the invariant the whole gate rests
// on: a device that says IdleUntil(now) > now promises its Tick(now)
// changes nothing. On the cycles it probes of the forced-awake reference
// run — which ticks every device anyway, so probing perturbs nothing —
// each device whose turn it is and that claims to be idle is ticked
// between two looks at the whole network: its walked state (every queue,
// buffer, counter and device, settled at the network clock), the flit
// free-list and the count of trace events. The first look is taken after
// IdleUntil is asked, since asking may draw the orchestrator's arrival
// stream ahead. A stall counted twice, a refill without its cursor, a
// field an idle tick moves: each shows as a difference.
type prober struct {
	idle          map[string]int // idle ticks probed, by device kind
	before, after []byte
}

// A run of at most probeBudget device-cycles is probed whole: every
// device on every cycle. A larger one is sampled on probedCycles cycles,
// spread over the run, with about probedPerCycle devices taking their
// turn on each.
const (
	probeBudget    = 40000
	probedCycles   = 16
	probedPerCycle = 8
)

func (p *prober) run(t *testing.T, n *noc.Network, cycles int) {
	t.Helper()
	stride, spread := 1, 1
	if cycles*len(n.Devices()) > probeBudget {
		stride, spread = cycles/probedCycles+1, max(1, len(n.Devices())/probedPerCycle)
	}
	for k := 0; ; k++ {
		n.Run(min(stride-1, cycles-int(n.Ticks())))
		if int(n.Ticks()) >= cycles {
			return
		}
		i := -1
		n.TickProbed(func(d noc.Device, now sim.Cycle, tick func()) {
			i++
			idle, ok := d.(noc.IdleUntiler)
			if !ok || i%spread != k%spread {
				tick()
				return
			}
			until := idle.IdleUntil(now)
			if until <= now {
				tick()
				return
			}
			p.before = look(t, n, p.before)
			tick()
			p.after = look(t, n, p.after)
			if !bytes.Equal(p.before, p.after) {
				t.Fatalf("cycle %d: %s said idle until %d but its Tick changed the network", now, d.Name(), until)
			}
			p.idle[kindOf(d)]++
		})
	}
}

// look renders the network as an idle tick must leave it into buf.
func look(t *testing.T, n *noc.Network, buf []byte) []byte {
	e := sim.NewEncoderOn(buf[:0])
	if err := n.SnapState(sim.Saving(e)); err != nil {
		t.Fatal(err)
	}
	e.PutU64(uint64(n.FreeFlits()))
	e.PutU64(n.Tracer.Total)
	return e.Data()
}

// kindOf names a device's Go type as DeviceTicksByKind does.
func kindOf(d noc.Device) string { return strings.TrimPrefix(fmt.Sprintf("%T", d), "*") }

// some is a floor that one skipped tick, or one jumped cycle, meets.
const some = 1e-9

// skipFloor is what the activity gate must skip of a catalogue system's
// gated run: a floor on the share of cycles jumped (or none may be), of
// station ticks and of device ticks skipped, some ring tick skipped, and
// per device kind the share of its ticks skipped, every kind listed.
type skipFloor struct {
	jumped          float64
	noJump, ring    bool
	station, device float64
	kinds           map[string]float64
}

// skipFloors are the measured floors, by catalogue name; each sits just
// under its measurement.
var skipFloors = map[string]skipFloor{
	// A handful of transactions on a large fabric: once the reads are
	// answered the coherence agents' idle contracts let the clock jump.
	"server-cpu": {jumped: some, device: some},
	// Deflection-heavy traffic on short rings: almost half the station
	// visits are needed (measured 56.3 % skipped); a closed-loop requester
	// sleeps on a full transaction table.
	"ai-die": {station: 0.45, device: some},
	// Two clusters a die leave 32 requesters, asleep on full transaction
	// tables, beside 16 memory controllers and 11 bridges that mostly are
	// not (78.4 % of device ticks skipped); short rings: an arrival or a
	// free slot is rarely far away (80.6 % of station ticks).
	"quad-die/saturated": {noJump: true, station: 0.75, device: 0.75},
	// One request per core per thousand cycles: rings and bridges sleep,
	// while the requesters draw their issue coin every cycle and so never
	// do, and the clock never jumps (measured 99.4 % / 55.9 %).
	"quad-die/trickle": {noJump: true, ring: true, station: 0.95, device: 0.50},
	// The benchmark's quad-die round. Every slot is occupied, yet a station
	// is needed on about one cycle in eleven: when a flit gets off, a free
	// slot reaches a blocked head, or a head may still arm its I-tag
	// (measured 90.9 % skipped; the arrival calendar alone, without parked
	// heads, leaves 69.0 %). 192 requesters asleep on a full transaction
	// table or behind a full inject queue, 64 coherence agents with
	// nothing to do; the memory controllers and bridges do most of the
	// ticking (measured 93.2 %; 81.3 % before the inject-space wake).
	"quad-die/bench": {noJump: true, station: 0.85, device: 0.90},
	// Far below the knee the fabric is empty most cycles.
	"serving/load-1": {jumped: 0.30},
	// Where the bookkeeping sleepers settle later interleave most:
	// memory controllers 94.1 % (72.0 % while a filling bucket kept them
	// awake), bridges 76.7 % (71.7 % while a credit pulse woke them),
	// engines 92.6 %, the orchestrator 88.6 % (47.4 % while a watermark
	// stall kept it awake).
	"serving/load-8": {kinds: map[string]float64{"mem.Controller": 0.93, "noc.RBRGL2": 0.75, "serving.Engine": 0.91, "serving.Orchestrator": 0.87}},
	// Open-loop requesters draw every cycle, so the clock never jumps;
	// the rest sleep on full tables, spent budgets and beat backlogs
	// (measured 74.0 % of requester ticks skipped), while the slow
	// memories behind them are rarely idle (9.1 %); 89.4 % of station
	// ticks.
	"traffic/requesters": {noJump: true, station: 0.85, kinds: map[string]float64{"traffic.Requester": 0.70, "mem.Controller": 0.08}},
}

// checkSkips holds n's gated run to floor, and to what every gated run
// satisfies: a jumped cycle counts every ring, station and device as
// skipped, so those counters are bounded below by the jumped cycles.
func checkSkips(t *testing.T, n *noc.Network, floor skipFloor) {
	t.Helper()
	share := func(skipped, total uint64) float64 { return float64(skipped) / float64(total) }
	rings, stations, cycles := uint64(len(n.Rings())), uint64(0), n.Ticks()
	for _, r := range n.Rings() {
		stations += uint64(len(r.Stations()))
	}
	var ticks, skipped uint64
	kinds := n.DeviceTicksByKind()
	for _, k := range kinds {
		ticks, skipped = ticks+k.Ticks, skipped+k.Skipped
	}
	devices := uint64(len(n.Devices()))
	switch {
	case skipped != n.DeviceTicksSkipped:
		t.Errorf("device tick table counts %d skipped, the network %d", skipped, n.DeviceTicksSkipped)
	case n.RingTicksSkipped < n.SkippedCycles*rings || n.RingTicksSkipped > cycles*rings:
		t.Errorf("%d ring ticks skipped over %d cycles (%d jumped) of %d rings", n.RingTicksSkipped, cycles, n.SkippedCycles, rings)
	case n.StationTicksSkipped < n.SkippedCycles*stations || n.StationTicksSkipped > cycles*stations:
		t.Errorf("%d station ticks skipped over %d cycles (%d jumped) of %d stations", n.StationTicksSkipped, cycles, n.SkippedCycles, stations)
	case n.DeviceTicksSkipped < n.SkippedCycles*devices:
		t.Errorf("%d device ticks skipped over %d jumped cycles of %d devices", n.DeviceTicksSkipped, n.SkippedCycles, devices)
	}
	if got := share(n.SkippedCycles, cycles); floor.noJump && got > 0 || got < floor.jumped {
		t.Errorf("%.1f%% of cycles jumped, want at least %.0f%% (none: %v)", 100*got, 100*floor.jumped, floor.noJump)
	}
	if floor.ring && n.RingTicksSkipped == 0 {
		t.Error("no ring tick skipped")
	}
	if got := share(n.StationTicksSkipped, cycles*stations); got < floor.station {
		t.Errorf("%.1f%% of station ticks skipped, want at least %.0f%%", 100*got, 100*floor.station)
	}
	if got := share(skipped, ticks+skipped); got < floor.device {
		t.Errorf("%.1f%% of device ticks skipped, want at least %.0f%%", 100*got, 100*floor.device)
	}
	if floor.kinds == nil {
		return
	}
	if len(kinds) != len(floor.kinds) {
		t.Errorf("%d kinds of device, %d floors", len(kinds), len(floor.kinds))
	}
	for _, k := range kinds {
		f, ok := floor.kinds[k.Kind]
		if got := share(k.Skipped, k.Ticks+k.Skipped); !ok || got < f {
			t.Errorf("%.1f%% of %s ticks skipped, want at least %.0f%% (floor listed: %v)", 100*got, k.Kind, 100*f, ok)
		}
	}
}

// TestCatalogueGateDiff runs every catalogue system forced awake, with
// the idle probe, and gated: the two must agree on everything observable,
// the gated run must skip what skipFloors says, and between them the
// catalogue must probe an idle tick of every kind of device that can be
// idle.
func TestCatalogueGateDiff(t *testing.T) {
	p := &prober{idle: map[string]int{}}
	kinds, floors := map[string]bool{}, len(skipFloors)
	for _, sys := range noctest.Catalogue {
		if _, ok := skipFloors[sys.Name]; ok {
			floors--
		}
		t.Run(sys.Name, func(t *testing.T) {
			ref := sys.Build()
			ref.ForceAwake()
			want := observe(t, ref, sys.Cycles, p)
			if ref.SkippedCycles+ref.RingTicksSkipped+ref.StationTicksSkipped+ref.DeviceTicksSkipped != 0 {
				t.Fatal("forced-awake reference skipped work")
			}
			gated := sys.Build()
			if got := observe(t, gated, sys.Cycles, nil); got != want {
				t.Errorf("gated engine diverged from forced-awake\n got: %v\nwant: %v", got, want)
			}
			checkSkips(t, gated, skipFloors[sys.Name])
			for _, d := range gated.Devices() {
				if _, ok := d.(noc.IdleUntiler); ok {
					kinds[kindOf(d)] = true
				}
			}
		})
	}
	for kind := range kinds {
		if p.idle[kind] == 0 {
			t.Errorf("no %s was probed while idle: the probe did not cover it", kind)
		}
	}
	if floors != 0 {
		t.Errorf("skipFloors names %d systems the catalogue does not hold", floors)
	}
}

// latencyDigest folds every delivery latency into a running FNV-1a hash
// whose state travels in a checkpoint's extra blob, so a resumed run's
// latency stream is compared with the uninterrupted one's too.
type latencyDigest struct{ count, hash uint64 }

func (l *latencyDigest) attach(n *noc.Network) {
	n.RecordLatency(func(_ *noc.Flit, c uint64) { l.count, l.hash = l.count+1, sim.FNV1aFoldU64(l.hash, c) })
}

func (l *latencyDigest) checkpoint(t *testing.T, n *noc.Network) []byte {
	t.Helper()
	e := sim.NewEncoder()
	e.PutU64(l.count)
	e.PutU64(l.hash)
	b, err := noc.EncodeCheckpoint(n, e.Data())
	if err != nil {
		t.Fatalf("checkpoint at cycle %d: %v", n.Ticks(), err)
	}
	return b
}

// TestCatalogueResume checkpoints every catalogue system at cycle 1 and
// at each of its At cycles, restoring each time into a fresh build, then
// on the landing cycle of the first quiescent jump after them, if there
// is one, restoring into a forced-awake build; the resumed run must end
// on the checkpoint bytes and latency stream of the run nobody
// interrupted.
func TestCatalogueResume(t *testing.T) {
	for _, sys := range noctest.Catalogue {
		t.Run(sys.Name, func(t *testing.T) {
			ref, refLat := sys.Build(), &latencyDigest{hash: sim.FNVOffset}
			refLat.attach(ref)
			ref.Run(sys.Cycles)
			want := refLat.checkpoint(t, ref)

			n, lat := sys.Build(), &latencyDigest{hash: sim.FNVOffset}
			lat.attach(n)
			resume := func(awake bool) {
				at, blob := n.Ticks(), lat.checkpoint(t, n)
				if n = sys.Build(); awake {
					n.ForceAwake()
				}
				extra, err := noc.DecodeCheckpoint(blob, n)
				if err != nil {
					t.Fatalf("restore at cycle %d: %v", at, err)
				}
				d := sim.NewDecoder(extra)
				lat = &latencyDigest{d.U64(), d.U64()}
				lat.attach(n)
			}
			for _, at := range append([]int{1}, sys.At...) {
				n.Run(at - int(n.Ticks()))
				resume(false)
			}
			if n.RunUntil(func() bool { return n.SkippedCycles > 0 }, sys.Cycles-int(n.Ticks())) {
				resume(true)
			}
			n.Run(sys.Cycles - int(n.Ticks()))
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if got := lat.checkpoint(t, n); !bytes.Equal(got, want) {
				t.Errorf("resumed run ended on different checkpoint bytes (%d vs %d)", len(got), len(want))
			}
		})
	}
}

// FuzzCatalogueRestore fuzzes the field decoders of every catalogue
// system: it patches bytes inside the state section of the entry's
// checkpoint at one of its At cycles and reseals it, as an attacker who
// can write a resume file would. which picks the entry (modulo the
// catalogue's length) and the cycle (the quotient, modulo the entry's At
// count), so an input below the catalogue's length names the first cycle.
// Whatever DecodeCheckpoint accepts must re-encode to exactly the bytes
// it was given and then run 64 cycles without a panic; everything else
// must be refused as ErrCorruptSnapshot.
func FuzzCatalogueRestore(f *testing.F) {
	seeds := make([][][]byte, len(noctest.Catalogue))
	for i, sys := range noctest.Catalogue {
		n := sys.Build()
		for j, at := range sys.At {
			n.Run(at - int(n.Ticks()))
			b, err := noc.EncodeCheckpoint(n, nil)
			if err != nil {
				f.Fatal(err)
			}
			seeds[i] = append(seeds[i], b)
			f.Add(uint8(i+j*len(seeds)), uint32(7919*i), []byte{0x7f})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		k := int(which) % len(seeds)
		at := seeds[k][int(which)/len(seeds)%len(seeds[k])]
		data := append([]byte(nil), at...)
		_, d, err := noc.OpenCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		d.Bytes(noc.MaxCheckpointExtra)
		start := len(data) - d.Remaining()
		copy(data[start+int(off)%(len(data)-start):], patch)
		durable.SealInPlace(data)

		n := noctest.Catalogue[k].Build()
		if _, err := noc.DecodeCheckpoint(data, n); err != nil {
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("%s: rejection %v does not wrap ErrCorruptSnapshot", noctest.Catalogue[k].Name, err)
			}
			return
		}
		if again, err := noc.EncodeCheckpoint(n, nil); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: accepted checkpoint does not round-trip: %d in, %d out (%v)", noctest.Catalogue[k].Name, len(data), len(again), err)
		}
		n.Run(64)
		_ = n.CheckConservation() // patched counters may not balance; it must not panic
	})
}
