package noc

import (
	"testing"

	"chipletnoc/internal/phys"
)

// TestSpanRingFabricLatencyDifference lays the same floorplan — two
// stations 7.2 mm apart each way round — on the two Table 4 fabrics:
// high-dense needs 3x the positions per span (phys.PositionsForSpan), and
// an end-to-end flit pays exactly that.
func TestSpanRingFabricLatencyDifference(t *testing.T) {
	measure := func(fabric phys.FabricClass) int {
		span := phys.Spec(fabric).PositionsForSpan(7200)
		net := NewNetwork("t")
		r := net.AddRing(2*span, false)
		src := newSource(t, net, r.AddStation(0), "src")
		dst := newSink(t, net, r.AddStation(span), "dst", 4)
		net.MustFinalize()
		f := net.NewFlit(src.Node(), dst.Node(), KindData, LineBytes)
		src.queue(f)
		runCycles(net, 200)
		if len(dst.got) != 1 {
			t.Fatal("undelivered")
		}
		return f.Hops
	}
	dense := measure(phys.HighDense)
	speed := measure(phys.HighSpeed)
	if dense != 3*speed {
		t.Fatalf("hops: dense=%d speed=%d, want exactly 3x", dense, speed)
	}
}
