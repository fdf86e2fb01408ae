package noc_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/noctest"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
	"chipletnoc/internal/traffic"
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
// field an idle tick moves: each shows as a difference. It records
// every idle answer it probed, by device.
type prober struct {
	idle          map[noc.Device]sleeps
	before, after []byte
}

// sleeps counts one device's probed idle answers: all of them, the timed
// ones (a cycle to wake at, short of Never), and the timed ones a
// requester gave behind a full inject queue.
type sleeps struct{ idle, timed, blockedTimed int }

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
			s := p.idle[d]
			s.idle++
			timed := until != noc.Never
			if timed {
				s.timed++
			}
			if r, ok := d.(*traffic.Requester); ok && timed && r.Iface.InjectSpace() == 0 {
				s.blockedTimed++
			}
			p.idle[d] = s
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
	// Without SWAP the Figure 9 rig deadlocks by cycle 500; the flood
	// sources never sleep, so the clock never jumps.
	"ablation/no-swap": {noJump: true},
	// One flit at a time on a 72-position ring, two laps apart: once it
	// lands, nothing moves until the next send (measured 73.6 % jumped).
	"ablation/wire-dense": {jumped: 0.70},
}

// exercise is what a system of traffic generators must have done for its
// idle probing to mean something: each generator was probed asleep, each
// retry case re-issued a request and was probed asleep towards a retry
// deadline, each request-budget case finished with every request
// completed or aborted, and the replay finished, slipped, and was probed
// asleep both until its next recorded cycle and for good. cases are the
// configurations its requesters are built from, in device order. An
// open-loop requester with no budget draws every cycle, so it sleeps only
// behind an inject queue that stays full through a cycle; unless blocked
// says its lane carries passing traffic, it need not have. aborts says
// its faults exhaust retry budgets: each requester aborted, completed
// requests after its first abort, and was probed asleep towards a retry
// deadline behind a full inject queue.
type exercise struct {
	cases           []traffic.RequesterConfig
	blocked, aborts bool
}

// exercises are the exercise checks, by catalogue name.
var exercises = map[string]exercise{
	"traffic/requesters":        {noctest.RequesterCases, false, false},
	"traffic/open-loop-blocked": {noctest.BlockedCases, true, false},
	"replay/bursty":             {},
	"traffic/aborts":            {noctest.AbortCases, false, true},
}

// check holds n, the gated run of sys, to e; idle gives the idle answers
// the reference run probed of the device at index i.
func (e exercise) check(t *testing.T, sys noctest.System, n *noc.Network, idle func(i int) sleeps) {
	t.Helper()
	k := 0
	for i, d := range n.Devices() {
		ok, s := true, idle(i)
		switch g := d.(type) {
		case *traffic.Requester:
			cfg := e.cases[k]
			k++
			retried, _ := g.RetryStats()
			timed := cfg.Retry.TimeoutCycles != 0
			drawsAlways := cfg.Rate < 1 && cfg.MaxRequests == 0
			ok = (!timed || retried > 0 && s.timed > 0) &&
				(cfg.MaxRequests == 0 || g.Done() && g.Completed+g.Aborted == g.Issued) &&
				(s.idle > 0 || drawsAlways && !e.blocked) &&
				(!e.aborts || g.Aborted > 0 && s.blockedTimed > 0 && g.Completed > completedAtFirstAbort(sys, i))
		case *traffic.Replayer:
			ok = g.SlipCycles > 0 && g.Done() && s.timed > 0 && s.idle > s.timed
		}
		if !ok {
			t.Errorf("%s did not do what its case is about (probed idle %+v)", d.Name(), s)
		}
	}
}

// completedAtFirstAbort runs a fresh build of sys until the requester at
// device index i first aborts a transaction, and returns how many it had
// completed by then.
func completedAtFirstAbort(sys noctest.System, i int) uint64 {
	n := sys.Build()
	r := n.Devices()[i].(*traffic.Requester)
	n.RunUntil(func() bool { return r.Aborted > 0 }, sys.Cycles)
	return r.Completed
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
// the gated run must skip what skipFloors says and do what exercises
// says, and between them the catalogue must probe an idle tick of every
// kind of device that can be idle.
func TestCatalogueGateDiff(t *testing.T) {
	p := &prober{idle: map[noc.Device]sleeps{}}
	kinds, named := map[string]bool{}, len(skipFloors)+len(exercises)
	for _, sys := range noctest.Catalogue {
		if _, ok := skipFloors[sys.Name]; ok {
			named--
		}
		if _, ok := exercises[sys.Name]; ok {
			named--
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
			if e, ok := exercises[sys.Name]; ok {
				e.check(t, sys, gated, func(i int) sleeps { return p.idle[ref.Devices()[i]] })
			}
			for _, d := range gated.Devices() {
				if _, ok := d.(noc.IdleUntiler); ok {
					kinds[kindOf(d)] = true
				}
			}
		})
	}
	for d := range p.idle {
		delete(kinds, kindOf(d))
	}
	for kind := range kinds {
		t.Errorf("no %s was probed while idle: the probe did not cover it", kind)
	}
	if named != 0 {
		t.Errorf("skipFloors and exercises name %d systems the catalogue does not hold", named)
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

// restoreStride is how a FuzzCatalogueRestore input's which names an
// entry and one of its At cycles: entry which%restoreStride, cycle
// which/restoreStride. The stride is fixed, not the catalogue's length,
// so appending an entry re-targets no committed input; a which that names
// no entry or no cycle is skipped. The catalogue may grow to restoreStride
// entries of at most four cycles each before the stride must change and
// the committed inputs be rewritten.
const restoreStride = 64

// restoreTarget returns the entry and At index which names in a catalogue
// whose entry i has ats[i] At cycles, or ok false if it names none.
func restoreTarget(which uint8, ats []int) (entry, at int, ok bool) {
	entry, at = int(which)%restoreStride, int(which)/restoreStride
	return entry, at, entry < len(ats) && at < ats[entry]
}

// catalogueAts returns each catalogue entry's number of At cycles.
func catalogueAts() []int {
	ats := make([]int, len(noctest.Catalogue))
	for i, sys := range noctest.Catalogue {
		ats[i] = len(sys.At)
	}
	return ats
}

// FuzzCatalogueRestore fuzzes the field decoders of every catalogue
// system: it patches bytes inside the state section of the entry's
// checkpoint at one of its At cycles and reseals it, as an attacker who
// can write a resume file would. which picks the entry and the cycle
// (restoreTarget). Whatever DecodeCheckpoint accepts must re-encode to
// exactly the bytes it was given and then run 64 cycles without a panic;
// everything else must be refused as ErrCorruptSnapshot.
func FuzzCatalogueRestore(f *testing.F) {
	ats := catalogueAts()
	seeds := make([][][]byte, len(noctest.Catalogue))
	for i, sys := range noctest.Catalogue {
		if i >= restoreStride || len(sys.At)*restoreStride > 256 {
			f.Fatalf("%s: the catalogue outgrew restoreStride", sys.Name)
		}
		n := sys.Build()
		for j, at := range sys.At {
			n.Run(at - int(n.Ticks()))
			b, err := noc.EncodeCheckpoint(n, nil)
			if err != nil {
				f.Fatal(err)
			}
			seeds[i] = append(seeds[i], b)
			f.Add(uint8(i+j*restoreStride), uint32(7919*i), []byte{0x7f})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		k, j, ok := restoreTarget(which, ats)
		if !ok {
			t.Skip("which names no entry and cycle")
		}
		at := seeds[k][j]
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

// TestCatalogueRestoreInputsSurviveAppend holds every committed
// FuzzCatalogueRestore input to the entry and cycle its file name says,
// and to the same entry and cycle in a catalogue one entry longer: an
// appended entry re-targets nothing.
func TestCatalogueRestoreInputsSurviveAppend(t *testing.T) {
	names := map[string]struct {
		entry string
		at    int
	}{
		"node-ref-0":       {"ai-die", 0},
		"node-ref-3":       {"quad-die/saturated", 0},
		"node-ref-6":       {"quad-die/everything", 0},
		"node-ref-9":       {"serving/load-8", 0},
		"node-ref-10":      {"serving/load-24", 0},
		"node-ref-15":      {"config/diff-mesh/trickle=false", 0},
		"queued-op-21":     {"server-cpu/bursts", 0},
		"serving-target-9": {"serving/load-8", 0},
		"tags-off-dir-48":  {"ablation/tags-off", 1},
		"unknown-txn-2":    {"server-cpu", 0},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCatalogueRestore")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(names) {
		t.Errorf("%d committed inputs, %d named here", len(files), len(names))
	}
	ats := catalogueAts()
	longer := append(append([]int(nil), ats...), 2)
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		arg, found := strings.CutPrefix(lines[1], "uint8(")
		which, err := strconv.ParseUint(strings.TrimSuffix(arg, ")"), 10, 8)
		if !found || err != nil {
			t.Fatalf("%s: first argument %q is not a uint8", file.Name(), lines[1])
		}
		entry, at, ok := restoreTarget(uint8(which), ats)
		want, named := names[file.Name()]
		switch {
		case !named:
			t.Errorf("%s: not named here", file.Name())
		case !ok:
			t.Errorf("%s: which %d names no entry and cycle", file.Name(), which)
		case noctest.Catalogue[entry].Name != want.entry || at != want.at:
			t.Errorf("%s: which %d names %s cycle %d, want %s cycle %d", file.Name(), which, noctest.Catalogue[entry].Name, at, want.entry, want.at)
		}
		if e, a, o := restoreTarget(uint8(which), longer); e != entry || a != at || o != ok {
			t.Errorf("%s: one more entry moves which %d from (%d, %d) to (%d, %d)", file.Name(), which, entry, at, e, a)
		}
	}
}
