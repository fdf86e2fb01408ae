package soc

import (
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// TestAIXYRoutingOneRingChange verifies Section 4.3's routing claim: with
// cores on vertical rings and memory on horizontal rings, "any request on
// the routing path takes no more than one ring change to reach the
// destination node".
func TestAIXYRoutingOneRingChange(t *testing.T) {
	cfg := DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 3
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 3
	cfg.HBMStacks, cfg.DMAEngines = 3, 3
	cfg.CoreOutstanding = 4 // light load: no DRM-era detours
	cfg.IODie = false       // host traffic legitimately crosses more rings
	a := BuildAIProcessor(cfg)

	maxChanges := 0
	a.Net.OnDeliver = func(f *noc.Flit, now sim.Cycle) {
		maxChanges = max(maxChanges, int(f.RingChanges))
	}
	a.Run(3000)
	var completed uint64
	for _, c := range a.Cores {
		completed += c.Completed
	}
	if completed == 0 {
		t.Fatal("no traffic")
	}
	// Core->L2 and L2->core flits cross exactly one RBRG-L1; DMA flits
	// between two horizontal rings may cross two (h -> v -> h).
	if maxChanges > 2 {
		t.Fatalf("a flit crossed %d rings; X-Y routing allows at most 2 (DMA h-v-h)", maxChanges)
	}
}

// TestAICoreToL2ExactlyOneBridge pins the core-path property precisely by
// watching only core-destined and L2-destined flits.
func TestAICoreToL2ExactlyOneBridge(t *testing.T) {
	cfg := DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 3
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 3
	cfg.HBMStacks, cfg.DMAEngines = 3, 0 // no DMA: only the core<->L2 flow
	cfg.CoreOutstanding = 4
	cfg.IODie = false
	a := BuildAIProcessor(cfg)
	bad := 0
	a.Net.OnDeliver = func(f *noc.Flit, now sim.Cycle) {
		if f.RingChanges != 1 {
			bad++
		}
	}
	a.Run(3000)
	if a.Net.DeliveredFlits == 0 {
		t.Fatal("no traffic")
	}
	if bad != 0 {
		t.Fatalf("%d/%d flits did not take exactly one ring change", bad, a.Net.DeliveredFlits)
	}
}
