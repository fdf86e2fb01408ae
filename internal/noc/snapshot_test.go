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
	net := NewNetwork("snap")
	v := net.AddRing(8, true)
	h := net.AddRing(8, true)
	stA := v.AddStation(0)
	stBrV := v.AddStation(4)
	stBrH := h.AddStation(0)
	stB := h.AddStation(4)
	a := newSource(t, net, stA, "a")
	b := newSource(t, net, stB, "b")
	NewRBRGL1(net, "br", DefaultRBRGL1Config(), stBrV, stBrH)
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

// TestCheckpointRefusesOverlongName: a network built in code, past any
// spec check, with a name no load accepts must fail to checkpoint rather
// than write a blob that can never be read back.
func TestCheckpointRefusesOverlongName(t *testing.T) {
	for _, tc := range []struct{ net, dev string }{
		{strings.Repeat("n", MaxNameBytes+1), "a"},
		{"snap", strings.Repeat("d", MaxNameBytes+1)},
	} {
		net := NewNetwork(tc.net)
		ring := net.AddRing(8, true)
		newSource(t, net, ring.AddStation(0), tc.dev)
		newSource(t, net, ring.AddStation(4), "b")
		net.MustFinalize()
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

// TestTopoHashDistinguishesBuilds checks structural changes move the
// topology hash.
func TestTopoHashDistinguishesBuilds(t *testing.T) {
	base, _, _ := buildSnapNet(t, 0)

	net2 := NewNetwork("snap")
	v := net2.AddRing(10, true) // longer ring
	h := net2.AddRing(8, true)
	stA := v.AddStation(0)
	stBrV := v.AddStation(4)
	stBrH := h.AddStation(0)
	stB := h.AddStation(4)
	newSource(t, net2, stA, "a")
	newSource(t, net2, stB, "b")
	NewRBRGL1(net2, "br", DefaultRBRGL1Config(), stBrV, stBrH)
	net2.MustFinalize()

	if base.TopoHash() == net2.TopoHash() {
		t.Fatal("different topologies share a TopoHash")
	}
}

// TestSnapshotPreservesMsgIdentity pins the pointer-identity pool: two
// flits sharing one Msg object must share one object after restore.
func TestSnapshotPreservesMsgIdentity(t *testing.T) {
	type payload struct{ v uint64 }
	RegisterMsgCodec(MsgCodec{
		ID:      200,
		Matches: func(m interface{}) bool { _, ok := m.(*payload); return ok },
		New:     func() interface{} { return &payload{} },
		Walk:    func(s *Snap, m interface{}) { s.U64(&m.(*payload).v) },
	})

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

	load := NewSnap(sim.Loading(sim.NewDecoder(e.Data())))
	var g1, g2 *Flit
	var g3 interface{}
	load.Flit(&g1)
	load.Flit(&g2)
	load.Msg(&g3)
	if err := load.Err(); err != nil {
		t.Fatal(err)
	}
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
		if len(s.flitIdx)+len(s.msgIdx)+len(s.flits)+len(s.msgs) != 0 || s.Codec != nil {
			t.Fatalf("%s: the walk left %d+%d saved and %d+%d loaded identities behind",
				when, len(s.flitIdx), len(s.msgIdx), len(s.flits), len(s.msgs))
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
