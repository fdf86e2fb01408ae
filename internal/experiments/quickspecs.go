package experiments

import (
	"chipletnoc/internal/baseline"
	"chipletnoc/internal/workloads"
)

// Quick-scale system variants: same organisations, fewer endpoints, so
// unit tests and benchmarks finish in milliseconds.

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func quickMultiRing() workloads.SystemSpec {
	return workloads.SystemSpec{
		Name: "this-work", Cores: 16, MemChannels: 4, CoreMLP: 16,
		NewFabric:  func() baseline.Fabric { return baseline.NewMultiRingChiplets(2, 10) },
		CoreNodes:  func() []int { return append(seq(0, 8), seq(10, 8)...) },
		MemNodes:   func() []int { return append(seq(8, 2), seq(18, 2)...) },
		MemLatency: 90, MemBytesPerCycle: 8.5,
	}
}

func quickMesh(name string, mlp int) workloads.SystemSpec {
	return workloads.SystemSpec{
		Name: name, Cores: 12, MemChannels: 4, CoreMLP: mlp,
		NewFabric:  func() baseline.Fabric { return baseline.NewBufferedMesh(baseline.DefaultMeshConfig(4, 4)) },
		CoreNodes:  func() []int { return seq(0, 12) },
		MemNodes:   func() []int { return seq(12, 4) },
		MemLatency: 90, MemBytesPerCycle: 8.5,
	}
}

func quickHub() workloads.SystemSpec {
	cfg := baseline.DefaultHubConfig(3, 8)
	cfg.HubPorts = 1
	return workloads.SystemSpec{
		Name: "amd-7742", Cores: 16, MemChannels: 4, CoreMLP: 10,
		NewFabric:  func() baseline.Fabric { return baseline.NewSwitchedHub(cfg) },
		CoreNodes:  func() []int { return seq(0, 16) },
		MemNodes:   func() []int { return seq(16, 4) },
		MemLatency: 90, MemBytesPerCycle: 8.5,
	}
}

// systemKey is a SystemSpec reduced to what can be compared: its name and
// every scalar field. Two specs of one name and equal scalars build the
// same fabric with the same endpoints — the fabric and node functions
// are fixed by the name here and in workloads — so a simulation's result
// depends on the spec through its key alone (RunDistinct).
type systemKey struct {
	Name                        string
	Cores, MemChannels, CoreMLP int
	MemLatency                  uint64
	MemBytesPerCycle            float64
	CorePowerW, CoreIPC         float64
}

func keyOfSystem(s workloads.SystemSpec) systemKey {
	return systemKey{s.Name, s.Cores, s.MemChannels, s.CoreMLP, s.MemLatency, s.MemBytesPerCycle, s.CorePowerW, s.CoreIPC}
}
