package workloads

import (
	"testing"

	"chipletnoc/internal/baseline"
)

// BenchmarkMemSystemStep times one harness cycle (MemSystem.Step: cores
// issue, channels serve, the fabric ticks) on the three Quick-scale
// organisations of the cross-system artifacts, with one core probing an
// idle package and with every core saturating it, after a warm-up that
// brings the closed loops to steady state. For the multi-ring it also
// reports how many device ticks a cycle cost, warm-up included, and holds
// that under a ceiling: the 20 endpoint ports sleep until something is
// ejected for them, and 20 ticks a cycle is what polling them would add.
func BenchmarkMemSystemStep(b *testing.B) {
	const warmup = 2000
	hub := baseline.DefaultHubConfig(3, 8)
	hub.HubPorts = 1
	for _, sys := range []struct {
		name            string
		fabric          func() baseline.Fabric
		cores, memories []int
		mlp             int
	}{
		{"multiring", func() baseline.Fabric { return baseline.NewMultiRingChiplets(2, 10) },
			append(seq(0, 8), seq(10, 8)...), append(seq(8, 2), seq(18, 2)...), 16},
		{"mesh", func() baseline.Fabric { return baseline.NewBufferedMesh(baseline.DefaultMeshConfig(4, 4)) },
			seq(0, 12), seq(12, 4), 6},
		{"hub", func() baseline.Fabric { return baseline.NewSwitchedHub(hub) },
			seq(0, 16), seq(16, 4), 10},
	} {
		for _, load := range []struct {
			name string
			rest CoreLoad // every core but core 0
		}{
			{"single-core", CoreLoad{Rate: 0, Outstanding: 1}},
			{"all-core", CoreLoad{Rate: 1, Outstanding: sys.mlp, ReadFraction: 0.5}},
		} {
			sys, load := sys, load
			b.Run(sys.name+"/"+load.name, func(b *testing.B) {
				loads := make([]CoreLoad, len(sys.cores))
				for i := range loads {
					loads[i] = load.rest
				}
				loads[0] = CoreLoad{Rate: 1, Outstanding: sys.mlp, ReadFraction: 0.5}
				f := sys.fabric()
				m := NewMemSystem(MemSystemConfig{
					Fabric: f, CoreNodes: sys.cores, MemNodes: sys.memories,
					MemLatency: ddrLatency, MemBytesPerCycle: ddrBytesPerCycle, LineBytes: 64,
				}, loads, 7)
				for i := 0; i < warmup; i++ {
					m.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.StopTimer()
				if m.TotalBytes() == 0 {
					b.Fatal("nothing moved")
				}
				mr, ok := f.(*baseline.MultiRing)
				if !ok {
					return
				}
				var ticks uint64
				for _, k := range mr.Network().DeviceTicksByKind() {
					ticks += k.Ticks
				}
				perCycle := float64(ticks) / float64(m.Cycles())
				b.ReportMetric(perCycle, "ticks/cycle")
				if perCycle > 8 {
					b.Fatalf("%.1f device ticks a cycle over %d devices, want at most 8: the ports are being polled", perCycle, mr.Nodes()+len(mr.Bridges()))
				}
			})
		}
	}
}
