package baseline

import (
	"fmt"
	"runtime"
	"testing"

	"chipletnoc/internal/sim"
)

// offerAll offers one packet from every node to the node `stride` ahead
// and ticks once: a saturating load, since every fabric here accepts
// less than one packet per node per cycle.
func offerAll(f Fabric, stride int, done DeliverFunc) {
	n := f.Nodes()
	for src := 0; src < n; src++ {
		f.TrySend(src, (src+stride)%n, 64, done)
	}
	f.Tick()
}

// saturate runs offerAll for cycles cycles, walking the stride so every
// pair of nodes is exercised.
func saturate(f Fabric, cycles int, done DeliverFunc) {
	n := f.Nodes()
	for i := 0; i < cycles; i++ {
		offerAll(f, 1+i%(n-1), done)
	}
}

// TestFabricSteadyStateAllocs: once queues, pools and free-lists have
// grown to their working size, a saturated cycle — refused sends
// included, a delivery callback on every packet — allocates nothing on
// any fabric. For MultiRing that is the refused-send hand-back at work
// (every refused TrySend mints a flit) and the callback riding in the flit.
func TestFabricSteadyStateAllocs(t *testing.T) {
	var done DeliverFunc = func(uint64) {}
	for _, f := range []Fabric{
		NewBufferedMesh(DefaultMeshConfig(4, 4)),
		NewBufferedRing(DefaultRingConfig(16)),
		NewSwitchedHub(DefaultHubConfig(4, 4)),
		NewMultiRing(16, true),
		NewMultiRingChiplets(2, 8),
	} {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			saturate(f, 2000, done)
			before, _ := f.Delivered()
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				offerAll(f, 1+i%(f.Nodes()-1), done)
				i++
			})
			if allocs != 0 {
				t.Errorf("%v allocations per saturated cycle, want 0", allocs)
			}
			if after, _ := f.Delivered(); after == before {
				t.Error("nothing was delivered during the measured cycles")
			}
		})
	}
}

// TestSaturatedPointAllocBound pins what one saturated MeasureUniform
// point on the 4×4 mesh allocates — the fabrics artifact's heavy point,
// offered 1 packet per node per cycle against the two thirds the mesh
// carries. Most of it is the latency population, held twice (its chunks,
// then the one sorted slice), and the source backlogs of int32 node
// indices: about 530 KB. A flat histogram grown by append and int
// backlogs took about 990 KB.
func TestSaturatedPointAllocBound(t *testing.T) {
	const bound = 600_000
	f := NewBufferedMesh(DefaultMeshConfig(4, 4))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := MeasureUniform(f, 1, 64, 500, 2000, 0xFAB)
	runtime.ReadMemStats(&after)
	if p.Throughput >= 0.9 {
		t.Fatalf("throughput %.3f: the point is not saturated", p.Throughput)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("saturated point allocated %d bytes, want at most %d", got, bound)
	}
}

// BenchmarkMeshTick times one mesh cycle (the offered sends plus Tick;
// ns/op is ns per cycle) with nothing queued, under a light uniform load
// and saturated, after a warm-up that brings the queues to steady state.
func BenchmarkMeshTick(b *testing.B) {
	for _, g := range [][2]int{{4, 4}, {6, 6}} {
		for _, load := range []struct {
			name string
			rate float64
		}{{"idle", 0}, {"load-0.05", 0.05}, {"saturated", 1}} {
			b.Run(fmt.Sprintf("%dx%d/%s", g[0], g[1], load.name), func(b *testing.B) {
				m := NewBufferedMesh(DefaultMeshConfig(g[0], g[1]))
				n := m.Nodes()
				rng := sim.NewRNG(7)
				cycle := func() {
					for src := 0; src < n && load.rate > 0; src++ {
						if rng.Bernoulli(load.rate) {
							m.TrySend(src, uniformDst(rng, n, src), 64, nil)
						}
					}
					m.Tick()
				}
				for i := 0; i < 2000; i++ {
					cycle()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}

// BenchmarkMultiRingRefusedSend times a TrySend that finds the inject
// queue full: a flit minted, refused and recycled.
func BenchmarkMultiRingRefusedSend(b *testing.B) {
	m := NewMultiRingChiplets(2, 8)
	for m.TrySend(0, 9, 64, nil) {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.TrySend(0, 9, 64, nil) {
			b.Fatal("send accepted by a full inject queue")
		}
	}
}
