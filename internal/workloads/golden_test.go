package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chipletnoc/internal/baseline"
)

// quickFabric is one Quick-scale organisation of the cross-system
// artifacts: a fabric, which of its endpoints are cores and which memory
// channels, and its cores' outstanding budget.
type quickFabric struct {
	name            string
	fabric          func() baseline.Fabric
	cores, memories []int
	mlp             int
}

// quickFabrics returns the four organisations the harness runs on.
func quickFabrics() []quickFabric {
	hub := baseline.DefaultHubConfig(3, 8)
	hub.HubPorts = 1
	return []quickFabric{
		{"mesh", func() baseline.Fabric { return baseline.NewBufferedMesh(baseline.DefaultMeshConfig(4, 4)) },
			seq(0, 12), seq(12, 4), 6},
		{"multiring", func() baseline.Fabric { return baseline.NewMultiRingChiplets(2, 10) },
			append(seq(0, 8), seq(10, 8)...), append(seq(8, 2), seq(18, 2)...), 16},
		{"hub", func() baseline.Fabric { return baseline.NewSwitchedHub(hub) },
			seq(0, 16), seq(16, 4), 10},
		{"ring", func() baseline.Fabric { return baseline.NewBufferedRing(baseline.DefaultRingConfig(12)) },
			seq(0, 10), seq(10, 2), 8},
	}
}

// config is the harness configuration of the organisation over f.
func (q quickFabric) config(f baseline.Fabric) MemSystemConfig {
	return MemSystemConfig{
		Fabric: f, CoreNodes: q.cores, MemNodes: q.memories,
		MemLatency: ddrLatency, MemBytesPerCycle: ddrBytesPerCycle, LineBytes: 64,
	}
}

// TestMemSystemGolden pins the harness behind Figs. 10–13 and Table 6
// cycle for cycle: per core the completions, bytes moved and the bits of
// the latency sum, then the fabric's delivered packets and bytes, folded
// into one FNV digest per fabric and request mix. A change to the
// channel, the cores or a fabric that moves any completion moves a
// digest; the failure prints the new one.
func TestMemSystemGolden(t *testing.T) {
	mixes := []struct {
		name string
		load CoreLoad
	}{
		{"read", CoreLoad{Rate: 1, ReadFraction: 1}},
		{"write", CoreLoad{Rate: 1, ReadFraction: 0}},
		{"hybrid", CoreLoad{Rate: 0.4, ReadFraction: 0.5}},
	}
	want := map[string]uint64{
		"mesh/read": 0x9367fd2f7a849bf7, "mesh/write": 0xe1f5361a8bf59c7, "mesh/hybrid": 0xc3895d39523ca539,
		"multiring/read": 0xec2b42ecd7fe6a38, "multiring/write": 0xf85dce0fac8a7fa6, "multiring/hybrid": 0x5b0def6dc5fabe9c,
		"hub/read": 0x2d024bf841ec2f, "hub/write": 0x129609f263120ca3, "hub/hybrid": 0xf4fd0723aee3d182,
		"ring/read": 0x3c004c93aa464abf, "ring/write": 0xf444156e43a58199, "ring/hybrid": 0x16aca22087ab6be0,
	}
	for _, fb := range quickFabrics() {
		for _, mix := range mixes {
			name := fb.name + "/" + mix.name
			loads := make([]CoreLoad, len(fb.cores))
			for i := range loads {
				loads[i] = mix.load
				loads[i].Outstanding = fb.mlp
			}
			f := fb.fabric()
			m := NewMemSystem(fb.config(f), loads, 11)
			m.Run(5000)
			h := fnv.New64a()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for _, c := range m.cores {
				put(c.completed)
				put(c.BytesMoved)
				put(math.Float64bits(c.latencySum))
			}
			pkts, bytes := f.Delivered()
			put(pkts)
			put(bytes)
			if m.TotalBytes() == 0 {
				t.Errorf("%s: nothing moved", name)
			}
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: digest %#x, want %#x", name, got, want[name])
			}
		}
	}
}
