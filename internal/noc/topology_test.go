package noc

import (
	"encoding/json"
	"reflect"
	"testing"

	"chipletnoc/internal/sim"
)

// TestDescribe: Describe's JSON reads back into the Topology it was
// rendered from — rings, the bridge's configuration and the tag flags —
// and is the bytes TopoHash hashes.
func TestDescribe(t *testing.T) {
	net := NewNetwork("demo")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(6, false)
	newSource(t, net, r0.AddStation(0), "alpha")
	newSink(t, net, r1.AddStation(0), "beta", 1)
	cfg := DefaultRBRGL2Config()
	cfg.LinkLatency = 3
	NewRBRGL2(net, "bridge0", cfg, r0.AddStation(4), r1.AddStation(3))
	net.ETagEnabled = false
	net.MustFinalize()
	out := net.Describe()
	var got Topology
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("Describe is not a Topology: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(got, net.Topology()) {
		t.Fatalf("Describe reads back as %+v, want %+v", got, net.Topology())
	}
	if got.Name != "demo" || !got.ITag || got.ETag {
		t.Fatalf("name %q, tags %v/%v", got.Name, got.ITag, got.ETag)
	}
	if len(got.Rings) != 2 || got.Rings[0].Positions != 8 || !got.Rings[0].Full ||
		got.Rings[1].Positions != 6 || got.Rings[1].Full {
		t.Fatalf("rings %+v", got.Rings)
	}
	if st := got.Rings[1].Stations[1]; st.Pos != 3 || st.Ifaces[0] == nil || got.Nodes[st.Ifaces[0].Node] != "bridge0" || st.Ifaces[1] != nil {
		t.Fatalf("ring 1's second station %+v", st)
	}
	br := got.Devices[2]
	if br.Name != "bridge0" || br.Kind != "noc.RBRGL2" || br.L1 != nil || br.L2 == nil || *br.L2 != cfg {
		t.Fatalf("bridge %+v, want L2 %+v", br, cfg)
	}
	if net.TopoHash() != sim.FNV1a(out) {
		t.Fatal("TopoHash is not the hash of Describe's bytes")
	}
}

func TestSnapshotDeltas(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	before := net.Snapshot()
	for i := 0; i < 5; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 50)
	delta := net.Snapshot().Since(before)
	if delta.Cycles != 50 {
		t.Fatalf("cycles = %d", delta.Cycles)
	}
	if delta.DeliveredFlits != 5 || delta.InjectedFlits != 5 {
		t.Fatalf("flits: %+v", delta)
	}
	if delta.DeliveredBytes != 5*LineBytes {
		t.Fatalf("bytes = %d", delta.DeliveredBytes)
	}
}

func TestBypassLane(t *testing.T) {
	// SendPriority flits must inject ahead of a backlog in the normal
	// inject queue.
	net := NewNetwork("t")
	r := net.AddRing(12, false)
	st0 := r.AddStation(0)
	st1 := r.AddStation(6)
	src := newSource(t, net, st0, "src")
	dst := newSink(t, net, st1, "dst", 4)
	net.MustFinalize()

	// Fill the normal inject queue.
	var normal []*Flit
	for i := 0; i < DefaultInjectDepth; i++ {
		f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
		if !src.Iface.Send(f) {
			t.Fatal("queue filled early")
		}
		normal = append(normal, f)
	}
	// Now a priority flit.
	pf := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	if !src.Iface.SendPriority(pf) {
		t.Fatal("bypass rejected")
	}
	var order []uint64
	net.RecordLatency(func(f *Flit, _ uint64) { order = append(order, f.ID) })
	runCycles(net, 100)
	if len(order) != DefaultInjectDepth+1 {
		t.Fatalf("delivered %d", len(order))
	}
	if order[0] != pf.ID {
		t.Fatalf("priority flit delivered %v-th, order=%v (want first)", indexOf(order, pf.ID), order)
	}
	_ = normal
}

func indexOf(s []uint64, v uint64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestBypassCapacity(t *testing.T) {
	net := NewNetwork("t")
	r := net.AddRing(8, false)
	st := r.AddStation(0)
	src := newSource(t, net, st, "src")
	dst := newSink(t, net, r.AddStation(4), "dst", 4)
	net.MustFinalize()
	accepted := 0
	for i := 0; i < 10; i++ {
		if src.Iface.SendPriority(net.NewFlit(src.Node(), dst.Node(), KindData, 0)) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("bypass accepted %d, want the lane depth 4", accepted)
	}
}

func TestInventory(t *testing.T) {
	net := NewNetwork("inv")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(6, false)
	st0 := r0.AddStation(0)
	newSource(t, net, st0, "a")
	newSource(t, net, st0, "b") // second iface, same station
	newSink(t, net, r1.AddStation(2), "c", 1)
	NewRBRGL2(net, "brg", DefaultRBRGL2Config(), r0.AddStation(4), r1.AddStation(4))
	net.MustFinalize()
	inv := net.Inventory()
	if inv.Rings != 2 {
		t.Fatalf("rings = %d", inv.Rings)
	}
	if inv.Positions != 8*2+6 {
		t.Fatalf("positions = %d", inv.Positions)
	}
	if inv.Stations != 4 {
		t.Fatalf("stations = %d", inv.Stations)
	}
	if inv.Interfaces != 5 { // a, b, c + two bridge halves
		t.Fatalf("interfaces = %d", inv.Interfaces)
	}
	if inv.QueueEntries <= 3*(DefaultInjectDepth+DefaultEjectDepth) {
		t.Fatalf("queue entries = %d", inv.QueueEntries)
	}
}
