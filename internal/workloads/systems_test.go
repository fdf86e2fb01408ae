package workloads

import (
	"testing"
)

func TestSystemSpecsGeometry(t *testing.T) {
	for _, s := range []SystemSpec{ThisWork96(), Intel8280(), Intel8180(), Intel6148(), AMD7742()} {
		t.Run(s.Name, func(t *testing.T) {
			cores := s.CoreNodes()
			mems := s.MemNodes()
			if len(cores) != s.Cores {
				t.Fatalf("core nodes %d != %d", len(cores), s.Cores)
			}
			if len(mems) != s.MemChannels {
				t.Fatalf("mem nodes %d != %d", len(mems), s.MemChannels)
			}
			f := s.NewFabric()
			n := f.Nodes()
			seen := map[int]bool{}
			for _, idx := range append(append([]int{}, cores...), mems...) {
				if idx < 0 || idx >= n {
					t.Fatalf("node index %d outside fabric of %d", idx, n)
				}
				if seen[idx] {
					t.Fatalf("node index %d assigned twice", idx)
				}
				seen[idx] = true
			}
		})
	}
}

func TestThisWorkScaledGeometry(t *testing.T) {
	for _, cores := range []int{16, 28, 64, 96} {
		s := ThisWorkScaled(cores)
		if s.Cores < cores || s.Cores > cores+2 {
			t.Fatalf("scaled(%d) gave %d cores", cores, s.Cores)
		}
		if len(s.CoreNodes()) != s.Cores || len(s.MemNodes()) != s.MemChannels {
			t.Fatalf("scaled(%d): inconsistent node lists", cores)
		}
		// Must actually build and move traffic.
		m := s.NewMemSystem(s.SingleCoreLoad(CoreLoad{Rate: 1, Outstanding: 4, ReadFraction: 1}), 1)
		m.Run(2000)
		if m.Core(0).completed == 0 {
			t.Fatalf("scaled(%d) system is dead", cores)
		}
	}
}

func TestCompetitionLoadNormalisation(t *testing.T) {
	// At the same sweep point, two systems with different core counts
	// must offer approximately the same aggregate load relative to their
	// DDR capacity. We verify via achieved utilization at a sub-knee
	// point.
	rate := []float64{0.6}
	a := quickSys("a", 8)
	b := quickSys("b", 16)
	pa := RunCompetition(a, CompetitionScenario{Name: "read", ReadFraction: 1}, rate, 1)
	pb := RunCompetition(b, CompetitionScenario{Name: "read", ReadFraction: 1}, rate, 1)
	if pa[0].ProbeLatency <= 0 || pb[0].ProbeLatency <= 0 {
		t.Fatal("missing measurements")
	}
	// Both systems below the knee: latency within 2x of each other
	// rather than one saturated and one idle.
	ratio := pa[0].ProbeLatency / pb[0].ProbeLatency
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("normalisation broken: latencies %v vs %v", pa[0].ProbeLatency, pb[0].ProbeLatency)
	}
}

func quickSys(name string, cores int) SystemSpec {
	s := ThisWorkScaled(cores)
	s.Name = name
	return s
}

func TestLMBenchMLPScaleMatters(t *testing.T) {
	// frd (half the MLP of rd) must deliver less single-core bandwidth.
	spec := ThisWorkScaled(16)
	var rd, frd LMBenchResult
	for _, k := range LMBenchKernels() {
		switch k.Name {
		case "rd":
			rd = RunLMBench(spec, k, 3)
		case "frd":
			frd = RunLMBench(spec, k, 3)
		}
	}
	if frd.SingleCoreGBps >= rd.SingleCoreGBps {
		t.Fatalf("frd (%v GB/s) should trail rd (%v GB/s)", frd.SingleCoreGBps, rd.SingleCoreGBps)
	}
}
