package noc

import (
	"bytes"
	"strings"
	"testing"

	"chipletnoc/internal/sim"
)

// The test endpoints participate in checkpointing so whole-network
// round-trips can be exercised inside this package.

// snapFlitSlice walks an endpoint's plain slice of flits.
func snapFlitSlice(sn *Snap, fs *[]*Flit) {
	sim.Slice(sn.Codec, fs, 1<<16)
	for i := range *fs {
		sn.Flit(&(*fs)[i])
	}
}

func (s *source) SnapState(sn *Snap) {
	snapFlitSlice(sn, &s.pending)
	if sn.Loading() {
		s.release = make([]sim.Cycle, len(s.pending))
	}
	for i := range s.release {
		sim.Uint(sn.Codec, &s.release[i])
	}
	snapFlitSlice(sn, &s.got)
	sim.Int(sn.Codec, &s.retries)
	sim.Uint(sn.Codec, &s.deadline)
	// The retry period and destination are build configuration: armed
	// retries restore only into a source built with them, or the first
	// deadline would send a flit to the zero-value destination.
	if s.retries < 0 || s.retries > 0 && s.retryEvery == 0 {
		sn.Fail("source %s: %d retries armed without a retry period", s.name, s.retries)
	}
}

func (s *sink) SnapState(sn *Snap) { snapFlitSlice(sn, &s.got) }

// buildSnapNet builds the two-ring crossing with bulk bidirectional
// traffic queued; identical calls build identical networks.
func buildSnapNet(t *testing.T, queue int) (*Network, *source, *source) {
	t.Helper()
	return buildL1Net(t, queue, 8, DefaultRBRGL1Config())
}

// buildL1Net is buildSnapNet with the first ring's length and the
// bridge's configuration chosen by the caller.
func buildL1Net(t *testing.T, queue, positions int, cfg RBRGL1Config) (*Network, *source, *source) {
	t.Helper()
	net := NewNetwork("snap")
	v := net.AddRing(positions, true)
	h := net.AddRing(8, true)
	stA := v.AddStation(0)
	stBrV := v.AddStation(4)
	stBrH := h.AddStation(0)
	stB := h.AddStation(4)
	a := newSource(t, net, stA, "a")
	b := newSource(t, net, stB, "b")
	NewRBRGL1(net, "br", cfg, stBrV, stBrH)
	net.MustFinalize()
	for i := 0; i < queue; i++ {
		a.queue(net.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
		b.queue(net.NewFlit(b.Node(), a.Node(), KindData, LineBytes))
	}
	return net, a, b
}

type netDigest struct {
	injected, delivered, deflections, hops, dropped uint64
	ticks                                           uint64
	aGot, bGot                                      []uint64
}

func digestOf(net *Network, a, b *source) netDigest {
	d := netDigest{
		injected:    net.InjectedFlits,
		delivered:   net.DeliveredFlits,
		deflections: net.Deflections,
		hops:        net.TotalHops,
		dropped:     net.DroppedFlits,
		ticks:       net.ticks,
	}
	for _, f := range a.got {
		d.aGot = append(d.aGot, f.ID)
	}
	for _, f := range b.got {
		d.bGot = append(d.bGot, f.ID)
	}
	return d
}

func equalDigest(x, y netDigest) bool {
	if x.injected != y.injected || x.delivered != y.delivered ||
		x.deflections != y.deflections || x.hops != y.hops ||
		x.dropped != y.dropped || x.ticks != y.ticks ||
		len(x.aGot) != len(y.aGot) || len(x.bGot) != len(y.bGot) {
		return false
	}
	for i := range x.aGot {
		if x.aGot[i] != y.aGot[i] {
			return false
		}
	}
	for i := range x.bGot {
		if x.bGot[i] != y.bGot[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRefusesOverlongName: a network built in code with a name
// no load accepts must fail to checkpoint rather than write a blob that
// can never be read back, and so must one given such a device after
// Finalize. A node named so never gets that far: Finalize refuses it
// (TestWiringFaultsFailFinalize).
func TestCheckpointRefusesOverlongName(t *testing.T) {
	long := strings.Repeat("n", MaxNameBytes+1)
	for _, tc := range []struct{ net, dev string }{{long, "late"}, {"snap", long}} {
		net := NewNetwork(tc.net)
		ring := net.AddRing(8, true)
		newSource(t, net, ring.AddStation(0), "a")
		newSource(t, net, ring.AddStation(4), "b")
		net.MustFinalize()
		net.AddDevice(&lateDevice{name: tc.dev})
		runCycles(net, 10)
		if _, err := EncodeCheckpoint(net, nil); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("network %.8q device %.8q: checkpoint error %v, want a name-limit refusal", tc.net, tc.dev, err)
		}
	}
}

// TestNetworkSnapshotResume proves the core invariant: snapshot a
// network mid-flight, restore into a freshly built twin, and the resumed
// run is indistinguishable from the uninterrupted one.
func TestNetworkSnapshotResume(t *testing.T) {
	const queue = 100

	// Uninterrupted reference run, with a mid-flight snapshot taken.
	netA, aA, bA := buildSnapNet(t, queue)
	runCycles(netA, 60) // traffic is in flight: slots, queues, bridge buffers
	if netA.InFlight() == 0 {
		t.Fatal("test needs in-flight traffic at snapshot time")
	}
	e := sim.NewEncoder()
	if err := netA.SnapState(sim.Saving(e)); err != nil {
		t.Fatalf("SnapState (saving): %v", err)
	}
	snap := append([]byte(nil), e.Data()...)
	runCycles(netA, 3000)
	want := digestOf(netA, aA, bA)
	if want.delivered != 2*queue {
		t.Fatalf("reference run delivered %d, want %d", want.delivered, 2*queue)
	}

	// Fresh twin: same topology, no traffic queued — all state comes
	// from the snapshot.
	netB, aB, bB := buildSnapNet(t, 0)
	if netA.TopoHash() != netB.TopoHash() {
		t.Fatal("identical builds disagree on TopoHash")
	}
	if err := netB.SnapState(sim.Loading(sim.NewDecoder(snap))); err != nil {
		t.Fatalf("SnapState (loading): %v", err)
	}
	runCycles(netB, 3000)
	got := digestOf(netB, aB, bB)
	if !equalDigest(want, got) {
		t.Fatalf("resumed run diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if err := netB.CheckConservation(); err != nil {
		t.Fatalf("conservation after resume: %v", err)
	}
}

// TestNetworkSnapshotRobustness feeds truncated and corrupted snapshots
// to the loading walk: every one must error, none may panic.
func TestNetworkSnapshotRobustness(t *testing.T) {
	netA, _, _ := buildSnapNet(t, 50)
	runCycles(netA, 40)
	e := sim.NewEncoder()
	if err := netA.SnapState(sim.Saving(e)); err != nil {
		t.Fatalf("SnapState (saving): %v", err)
	}
	snap := e.Data()

	for n := 0; n < len(snap); n += 7 {
		netB, _, _ := buildSnapNet(t, 0)
		if err := netB.SnapState(sim.Loading(sim.NewDecoder(snap[:n]))); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", n)
		}
	}
	for pos := 0; pos < len(snap); pos += 311 {
		mut := append([]byte(nil), snap...)
		mut[pos] ^= 0xFF
		netB, _, _ := buildSnapNet(t, 0)
		// A flipped byte may land in a counter and decode "successfully";
		// the requirement is no panic and no index out of range.
		_ = netB.SnapState(sim.Loading(sim.NewDecoder(mut)))
	}
}

// TestTopoHashDistinguishesBuilds: a checkpoint taken mid-transfer
// restores into an identical build and is refused, as a topology
// mismatch, by a build that differs in any one parameter of a bridge,
// a tag flag or a ring length.
func TestTopoHashDistinguishesBuilds(t *testing.T) {
	type build func(t *testing.T, queue int) *Network
	l2 := func(edit func(*RBRGL2Config)) build {
		return func(t *testing.T, queue int) *Network {
			cfg := DefaultRBRGL2Config()
			edit(&cfg)
			net, srcs, dsts, _ := buildTwoDie(t, cfg)
			for i := 0; i < queue; i++ {
				srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
				srcs[1].queue(net.NewFlit(srcs[1].Node(), dsts[0].Node(), KindData, LineBytes))
			}
			return net
		}
	}
	tags := func(itag, etag bool) build {
		return func(t *testing.T, queue int) *Network {
			net := l2(func(*RBRGL2Config) {})(t, queue)
			net.ITagEnabled, net.ETagEnabled = itag, etag
			return net
		}
	}
	l1 := func(positions, forward int) build {
		return func(t *testing.T, queue int) *Network {
			cfg := DefaultRBRGL1Config()
			cfg.ForwardPerCycle = forward
			net, _, _ := buildL1Net(t, queue, positions, cfg)
			return net
		}
	}
	twoDie := l2(func(*RBRGL2Config) {})
	for _, tc := range []struct {
		name        string
		base, other build
	}{
		{"LinkLatency 2", twoDie, l2(func(c *RBRGL2Config) { c.LinkLatency = 2 })},
		{"LinkLatency 40", twoDie, l2(func(c *RBRGL2Config) { c.LinkLatency = 40 })},
		{"LinkWidth 1", twoDie, l2(func(c *RBRGL2Config) { c.LinkWidth = 1 })},
		{"DeadlockThreshold 1", twoDie, l2(func(c *RBRGL2Config) { c.DeadlockThreshold = 1 })},
		{"EnableSwap off", twoDie, l2(func(c *RBRGL2Config) { c.EnableSwap = false })},
		{"TxDepth 4", twoDie, l2(func(c *RBRGL2Config) { c.TxDepth = 4 })},
		{"ETagEnabled off", twoDie, tags(true, false)},
		{"ITagEnabled off", twoDie, tags(false, true)},
		{"RBRGL1 ForwardPerCycle 1", l1(8, 4), l1(8, 1)},
		{"ring length 10", l1(8, 4), l1(10, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.base(t, 100)
			runCycles(net, 60)
			if net.InFlight() == 0 {
				t.Fatal("test needs in-flight traffic at checkpoint time")
			}
			data, err := EncodeCheckpoint(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(data, tc.base(t, 0)); err != nil {
				t.Fatalf("an identical build refused the checkpoint: %v", err)
			}
			_, err = DecodeCheckpoint(data, tc.other(t, 0))
			if err == nil || !strings.Contains(err.Error(), "does not match built system") {
				t.Fatalf("a differently built system: restore error %v, want a topology mismatch", err)
			}
		})
	}
	t.Run("export shares no memory", func(t *testing.T) {
		net := twoDie(t, 0)
		before := net.hashTopology()
		topo := net.Topology()
		for _, d := range topo.Devices {
			if d.L2 != nil {
				d.L2.LinkLatency = 40
			}
		}
		topo.Rings[0].Stations[0].Ifaces[0].Inject = 1
		topo.Nodes[0] = "renamed"
		if net.hashTopology() != before {
			t.Fatal("editing an exported Topology moved the network's TopoHash")
		}
	})
}

// payload is an upper-layer message the tests in this package walk.
type payload struct {
	v    uint64
	mark uint32
}

var payloadCodec = MsgCodec{
	ID: 200,
	Ref: func(m interface{}) *uint32 {
		if p, ok := m.(*payload); ok {
			return &p.mark
		}
		return nil
	},
	New:  func() interface{} { return &payload{} },
	Walk: func(s *Snap, m interface{}) { s.U64(&m.(*payload).v) },
}

func init() { RegisterMsgCodec(payloadCodec) }

// foreignPayload is a message type with no snapshot codec: a network
// carrying one cannot be checkpointed.
type foreignPayload struct{ v int }

// TestSnapshotPreservesMsgIdentity pins the pointer-identity pool: two
// flits sharing one Msg object must share one object after restore.
func TestSnapshotPreservesMsgIdentity(t *testing.T) {

	shared := &payload{v: 42}
	f1 := &Flit{ID: 1, Msg: shared}
	f2 := &Flit{ID: 2, Msg: shared}

	e := sim.NewEncoder()
	save := NewSnap(sim.Saving(e))
	save.Flit(&f1)
	save.Flit(&f2)
	// Walking the message again directly must be a back-reference.
	var m interface{} = shared
	save.Msg(&m)
	if err := save.Err(); err != nil {
		t.Fatal(err)
	}
	save.End()
	if f1.mark != 0 || f2.mark != 0 || shared.mark != 0 {
		t.Fatalf("End left marks %d, %d and %d set", f1.mark, f2.mark, shared.mark)
	}

	load := NewSnap(sim.Loading(sim.NewDecoder(e.Data())))
	var g1, g2 *Flit
	var g3 interface{}
	load.Flit(&g1)
	load.Flit(&g2)
	load.Msg(&g3)
	if err := load.Err(); err != nil {
		t.Fatal(err)
	}
	load.End()
	if g1.Msg == nil || g1.Msg != g2.Msg || g1.Msg != g3 {
		t.Fatal("message identity not preserved across snapshot")
	}
	if got := g1.Msg.(*payload).v; got != 42 {
		t.Fatalf("payload = %d", got)
	}
}

// TestCheckpointBytesAreBuiltOnce: EncodeCheckpoint and DecodeCheckpoint
// are WriteCheckpoint and ReadCheckpoint without the copies — the same
// bytes, built in one buffer that the network sizes from its previous
// checkpoint, and read where they lie. The identity pools the walks fill
// live on the network between checkpoints and must come back empty, or
// every flit a checkpoint saw would stay reachable from it.
func TestCheckpointBytesAreBuiltOnce(t *testing.T) {
	net, _, _ := buildSnapNet(t, 5000) // a few hundred KiB of queued flits
	runCycles(net, 60)
	poolsEmpty := func(n *Network, when string) {
		t.Helper()
		s := &n.snap
		if s.flits.n+s.msgs.n != 0 || s.Codec != nil {
			t.Fatalf("%s: the walk left %d flits and %d messages behind", when, s.flits.n, s.msgs.n)
		}
		for _, c := range s.flits.chunks {
			for _, f := range c {
				if f != nil {
					t.Fatalf("%s: the flit pool still references flit %d", when, f.ID)
				}
			}
		}
	}
	first, err := EncodeCheckpoint(net, []byte("extra"))
	if err != nil {
		t.Fatal(err)
	}
	poolsEmpty(net, "after encoding")
	var written bytes.Buffer
	if err := WriteCheckpoint(&written, net, []byte("extra")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, written.Bytes()) {
		t.Fatal("EncodeCheckpoint and WriteCheckpoint disagree")
	}
	if len(first) < 128<<10 {
		t.Fatalf("checkpoint of %d bytes is too small to show a regrown buffer", len(first))
	}
	second, err := EncodeCheckpoint(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if last := len(first) - len("extra"); cap(second) != last+last/8 {
		t.Fatalf("second checkpoint of %d bytes sits in a buffer of %d, want the %d its predecessor asked for", len(second), cap(second), last+last/8)
	}

	twin, _, _ := buildSnapNet(t, 0)
	extra, err := DecodeCheckpoint(first, twin)
	if err != nil || string(extra) != "extra" {
		t.Fatalf("DecodeCheckpoint: %q, %v", extra, err)
	}
	poolsEmpty(twin, "after decoding")
	again, err := EncodeCheckpoint(twin, []byte("extra"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("a checkpoint decoded from bytes re-encodes differently")
	}
	// A refused load must not leave half a pool behind either.
	if _, err := DecodeCheckpoint(first[:len(first)/2], twin); err == nil {
		t.Fatal("half a checkpoint was accepted")
	}
	poolsEmpty(twin, "after a refused load")
}

// liveFlits returns every flit on net's ring slots and in its interface
// queues.
func liveFlits(net *Network) []*Flit {
	var fs []*Flit
	for _, r := range net.rings {
		loops := []*loop{&r.cw}
		if r.full {
			loops = append(loops, &r.ccw)
		}
		for _, l := range loops {
			for p := 0; p < r.positions; p++ {
				if f := l.at(p).flit; f != nil {
					fs = append(fs, f)
				}
			}
		}
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				for _, q := range []*sim.FIFO[*Flit]{&ni.inject, &ni.eject, &ni.bypass} {
					for i := 0; i < q.Len(); i++ {
						fs = append(fs, q.At(i))
					}
				}
			}
		}
	}
	return fs
}

// queuedFlit returns the head of src's inject queue.
func queuedFlit(t *testing.T, src *source) *Flit {
	t.Helper()
	if src.Iface.inject.Len() == 0 {
		t.Fatalf("source %s has nothing queued", src.name)
	}
	return src.Iface.inject.At(0)
}

// TestFailedSaveLeavesStateAlone: a save that meets a message type with
// no codec fails without touching the live state — the flit keeps its
// message, and the run continues exactly as a twin's that never tried to
// save.
func TestFailedSaveLeavesStateAlone(t *testing.T) {
	build := func() (*Network, *source, *source, *Flit) {
		net, a, b := buildSnapNet(t, 100)
		runCycles(net, 60)
		f := queuedFlit(t, a)
		f.Msg = &foreignPayload{v: 7}
		return net, a, b, f
	}
	net, a, b, f := build()
	twin, ta, tb, _ := build()
	msg := f.Msg
	if _, err := EncodeCheckpoint(net, nil); err == nil || !strings.Contains(err.Error(), "no snapshot codec") {
		t.Fatalf("checkpoint of a foreign message: %v, want a missing-codec refusal", err)
	}
	if f.Msg != msg {
		t.Fatalf("the failed save replaced flit %d's message with %v", f.ID, f.Msg)
	}
	runCycles(net, 3000)
	runCycles(twin, 3000)
	if got, want := digestOf(net, a, b), digestOf(twin, ta, tb); !equalDigest(got, want) {
		t.Fatalf("the run after a failed save diverged from its twin's:\nwant %+v\ngot  %+v", want, got)
	}
	if f.Msg != msg {
		t.Fatalf("flit %d arrived without its message", f.ID)
	}
}

// TestSnapMarksClearedAfterFailedWalk: a walk that fails midway — after
// it has marked flits and messages on the first ring, at a foreign
// message on the second — leaves no mark set, and the next checkpoint is
// byte for byte a twin's that never failed.
func TestSnapMarksClearedAfterFailedWalk(t *testing.T) {
	build := func() (*Network, *Flit, []*payload) {
		net, a, b := buildSnapNet(t, 100)
		runCycles(net, 60)
		var msgs []*payload
		for i := 0; i < a.Iface.inject.Len(); i++ {
			m := &payload{v: uint64(i)}
			a.Iface.inject.At(i).Msg = m
			msgs = append(msgs, m)
		}
		return net, queuedFlit(t, b), msgs
	}
	net, foreign, msgs := build()
	twin, twinForeign, _ := build()
	foreign.Msg = &foreignPayload{}
	if _, err := EncodeCheckpoint(net, nil); err == nil {
		t.Fatal("a checkpoint of a foreign message succeeded")
	}
	for _, f := range liveFlits(net) {
		if f.mark != 0 {
			t.Fatalf("flit %d kept mark %d after the failed walk", f.ID, f.mark)
		}
	}
	for _, m := range msgs {
		if m.mark != 0 {
			t.Fatalf("message %d kept mark %d after the failed walk", m.v, m.mark)
		}
	}
	foreign.Msg, twinForeign.Msg = nil, nil
	got, err := EncodeCheckpoint(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeCheckpoint(twin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the checkpoint after a failed walk differs from a twin's")
	}
}

// lateDevice is a device registered after Finalize, as a fault injector
// is.
type lateDevice struct{ name string }

func (d *lateDevice) Name() string    { return d.name }
func (d *lateDevice) Tick(sim.Cycle)  {}
func (d *lateDevice) SnapState(*Snap) {}

// TestTopoHashCached: the hash a finalized network caches is the one a
// fresh computation gives — after a run, and after an AddDevice that
// follows Finalize, which changes it. Every other build call refuses to
// run after Finalize, so nothing else can change what the hash covers.
func TestTopoHashCached(t *testing.T) {
	net, _, _ := buildSnapNet(t, 100)
	before := net.TopoHash()
	runCycles(net, 200)
	if got, fresh := net.TopoHash(), net.hashTopology(); got != before || got != fresh {
		t.Fatalf("after a run the cached hash is %#x, computed before %#x and now %#x", got, before, fresh)
	}
	net.AddDevice(&lateDevice{name: "late"})
	if got, fresh := net.TopoHash(), net.hashTopology(); got != fresh || got == before {
		t.Fatalf("after AddDevice the hash is %#x, a fresh computation %#x (before it %#x)", got, fresh, before)
	}
	for call, build := range map[string]func(){
		"AddRing":    func() { net.AddRing(8, true) },
		"AddStation": func() { net.Ring(0).AddStation(2) },
		"NewNode":    func() { net.NewNode("later") },
		"Attach":     func() { net.Attach(0, net.Ring(0).Station(0)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "after Finalize") {
					t.Errorf("%s after Finalize: panic %q, want a refusal", call, msg)
				}
			}()
			build()
		}()
	}
	twin, _, _ := buildSnapNet(t, 0)
	twin.TopoHash()
	twin.AddDevice(&lateDevice{name: "late"})
	data, err := EncodeCheckpoint(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(data, twin); err != nil {
		t.Fatalf("a twin given the same late device refused the checkpoint: %v", err)
	}
}

// TestCheckpointEncodeAllocs: once a network has checkpointed, the next
// checkpoint allocates three objects — the encoder, its buffer and the
// codec — however many flits and messages it walks: the identity pools
// keep their chunks and find an object's place through its mark.
func TestCheckpointEncodeAllocs(t *testing.T) {
	net, a, _ := buildSnapNet(t, 2000)
	runCycles(net, 60)
	for i, f := range a.pending {
		f.Msg = &payload{v: uint64(i / 2)} // some messages walk twice
	}
	if _, err := EncodeCheckpoint(net, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EncodeCheckpoint(net, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a warmed checkpoint of %d flits allocates %v objects, want at most 3", len(a.pending), allocs)
	}
}
