package noc

import "testing"

func TestInterfaceReportOrdersByTraffic(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	for i := 0; i < 20; i++ {
		src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 200)
	rep := net.InterfaceReport()
	if len(rep) != 2 {
		t.Fatalf("interfaces = %d", len(rep))
	}
	if rep[0].Name != "dst" || rep[0].EjectedFlits != 20 {
		t.Fatalf("top interface %+v", rep[0])
	}
	if rep[1].Injected != 20 {
		t.Fatalf("src injected %d", rep[1].Injected)
	}
}

func TestHotspots(t *testing.T) {
	// The eject-pressure rig: the slow sink must carry the deflections in
	// the interface report.
	net := NewNetwork("t")
	r := net.AddRing(8, true)
	srcA := newSource(t, net, r.AddStation(1), "srcA")
	srcB := newSource(t, net, r.AddStation(7), "srcB")
	dst := newSink(t, net, r.AddStation(4), "dst", 1)
	net.MustFinalize()
	for i := 0; i < 40; i++ {
		srcA.queue(net.NewFlit(srcA.Node(), dst.Node(), KindData, LineBytes))
		srcB.queue(net.NewFlit(srcB.Node(), dst.Node(), KindData, LineBytes))
	}
	runCycles(net, 1500)
	for _, s := range net.InterfaceReport() {
		if (s.Name == "dst") != (s.Deflected > 0) {
			t.Fatalf("%s deflected %d: only the slow sink should", s.Name, s.Deflected)
		}
	}
}

func TestHotspotsNilWithoutDeflections(t *testing.T) {
	net, src, dst := buildPair(t, 10, 3, 8)
	src.queue(net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes))
	runCycles(net, 50)
	for _, s := range net.InterfaceReport() {
		if s.Deflected != 0 {
			t.Fatalf("deflections on a clean run: %+v", s)
		}
	}
}
