package noc

import (
	"strings"
	"testing"

	"chipletnoc/internal/trace"
)

func TestNetworkTracing(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	tr := trace.New(128)
	net.Tracer = tr
	f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
	src.queue(f)
	runCycles(net, 20)
	counts := tr.CountByKind()
	if counts[trace.Inject] != 1 {
		t.Fatalf("inject events = %d", counts[trace.Inject])
	}
	if counts[trace.Deliver] != 1 {
		t.Fatalf("deliver events = %d", counts[trace.Deliver])
	}
	dump := tr.Dump(f.ID)
	if !strings.Contains(dump, "src") || !strings.Contains(dump, "dst") {
		t.Fatalf("dump missing endpoints:\n%s", dump)
	}
}

func TestTracingDeflections(t *testing.T) {
	// Reuse the eject-backpressure rig: deflect events must appear.
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	stA := r.AddStation(1)
	stB := r.AddStation(7)
	stD := r.AddStation(4)
	srcA := newSource(t, net, stA, "srcA")
	srcB := newSource(t, net, stB, "srcB")
	dst := newSink(t, net, stD, "dst", 1)
	net.MustFinalize()
	tr := trace.New(4096) // holds the whole run
	net.Tracer = tr
	for i := 0; i < 40; i++ {
		srcA.queue(net.NewFlit(srcA.Node(), dst.Node(), KindData, LineBytes))
		srcB.queue(net.NewFlit(srcB.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 1500)
	if uint64(tr.Len()) != tr.Total {
		t.Fatalf("tracer kept %d of %d events", tr.Len(), tr.Total)
	}
	if tr.CountByKind()[trace.Deflect] == 0 {
		t.Fatal("no deflect events traced")
	}
	if uint64(tr.CountByKind()[trace.Deflect]) != net.Deflections {
		t.Fatalf("trace count %d != network counter %d",
			tr.CountByKind()[trace.Deflect], net.Deflections)
	}
}

func TestTracingBridgeAndDRM(t *testing.T) {
	net, _, br := buildDeadlockRig(t, true, 5000)
	tr := trace.New(1 << 16)
	net.Tracer = tr
	runCycles(net, 60000)
	counts := tr.CountByKind()
	if counts[trace.DRMEnter] == 0 {
		t.Skip("rig did not deadlock in this configuration")
	}
	if counts[trace.Swap] == 0 {
		t.Fatal("no swap events despite DRM")
	}
	_ = br
}
