package workloads

import (
	"testing"

	"chipletnoc/internal/baseline"
)

// BenchmarkMemSystemStep times one harness cycle (MemSystem.Step: the
// cores that can act issue, the channels with a request waiting for a
// grant are stepped, replies go out, the fabric ticks) on the three
// Quick-scale organisations of the cross-system artifacts, with one core
// probing an idle package and with every core saturating it, after a
// warm-up that brings the closed loops to steady state. For the multi-ring it also
// reports how many device ticks a cycle cost, warm-up included, and holds
// that under a ceiling: the 20 endpoint ports sleep until something is
// ejected for them, and 20 ticks a cycle is what polling them would add.
func BenchmarkMemSystemStep(b *testing.B) {
	const warmup = 2000
	for _, sys := range quickFabrics()[:3] {
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
				m := NewMemSystem(sys.config(f), loads, 7)
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
