package serving

import (
	"testing"

	"chipletnoc/internal/config"
)

// quickSpec returns the defaulted reference workload.
func quickSpec(t testing.TB) *config.ServingSpec {
	t.Helper()
	s, err := config.ParseServingSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyDefaults(true)
	return s
}

// fingerprint captures everything a run's result depends on.
type fingerprint struct {
	admitted, completed, stalls uint64
	stream, sketch              uint64
}

func runPoint(t *testing.T, spec *config.ServingSpec, point int) fingerprint {
	t.Helper()
	sys, err := Build(spec, point)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	return fingerprint{
		admitted:  sys.Orch.Admitted,
		completed: sys.Orch.Completed,
		stalls:    sys.Orch.StallCycles(),
		stream:    sys.Orch.StreamDigest(),
		sketch:    sys.Orch.Sketch.Digest(),
	}
}

func TestServingSmoke(t *testing.T) {
	spec := quickSpec(t)
	sys, err := Build(spec, 1) // the middle load
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	o := sys.Orch
	if o.Admitted == 0 {
		t.Fatal("open-loop run admitted nothing")
	}
	if o.Completed == 0 {
		t.Fatal("no request completed")
	}
	if o.Sketch.Count() != o.Completed {
		t.Errorf("sketch holds %d samples for %d completions", o.Sketch.Count(), o.Completed)
	}
	if o.Backlog() != o.Admitted-o.Completed {
		t.Errorf("backlog %d != admitted-completed %d", o.Backlog(), o.Admitted-o.Completed)
	}
	if p50 := o.Sketch.Quantile(0.5); p50 <= 0 {
		t.Errorf("p50 latency %v not positive", p50)
	}
}

// TestServingExpertTrafficIsAllToAll checks the MoE placement claim:
// with experts round-robined over dies and homes rotating, every die's
// memory sees both reads (weights) and writes (dispatch/combine
// payloads from other dies), and the inter-die bridges carry traffic.
func TestServingExpertTrafficIsAllToAll(t *testing.T) {
	spec := quickSpec(t)
	sys, err := Build(spec, 2) // the heaviest quick load
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	for die, m := range sys.Mems {
		if m.Reads == 0 || m.Writes == 0 {
			t.Errorf("die %d memory saw reads=%d writes=%d; expert routing should touch every die", die, m.Reads, m.Writes)
		}
	}
	var engineBytes uint64
	for _, e := range sys.Engines {
		engineBytes += e.BytesMoved
	}
	if engineBytes == 0 {
		t.Fatal("engines moved no bytes")
	}
}

// TestServingSeededReproducible pins that reruns are bit-identical and
// that the seed actually matters (the arrival stream is seeded, not
// incidental).
func TestServingSeededReproducible(t *testing.T) {
	spec := quickSpec(t)
	a, b := runPoint(t, spec, 0), runPoint(t, spec, 0)
	if a != b {
		t.Fatalf("identical runs diverged: %+v != %+v", a, b)
	}
	reseeded := quickSpec(t)
	reseeded.Seed = 12345
	if c := runPoint(t, reseeded, 0); c.stream == a.stream {
		t.Errorf("different seeds produced the same completion stream digest %x", c.stream)
	}
}

// TestServingBurstyArrivals runs the Markov-modulated process: same
// mean load, different arrival pattern — the digest must differ from
// Poisson and the run must still complete work.
func TestServingBurstyArrivals(t *testing.T) {
	poisson := quickSpec(t)
	bursty := quickSpec(t)
	bursty.Arrival = config.ServingArrivalSpec{Process: "bursty"}
	bursty.ApplyDefaults(true)
	if bursty.Arrival.BurstOn == 0 || bursty.Arrival.BurstOff == 0 {
		t.Fatal("bursty defaults missing")
	}
	p, b := runPoint(t, poisson, 1), runPoint(t, bursty, 1)
	if b.completed == 0 {
		t.Fatal("bursty run completed nothing")
	}
	if p.stream == b.stream {
		t.Error("bursty and poisson arrival processes produced identical completion streams")
	}
}

// TestServingWatermarkStalls drives a saturating load and checks the
// stall probe fires: with the high watermark capping in-flight batches,
// an overloaded queue must spend cycles stalled.
func TestServingWatermarkStalls(t *testing.T) {
	spec := quickSpec(t)
	spec.Loads = []float64{400} // far past saturation for the quick window
	sys, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if sys.Orch.StallCycles() == 0 {
		t.Error("saturating load recorded no watermark stall cycles")
	}
	if sys.Orch.Backlog() == 0 {
		t.Error("saturating open-loop load left no backlog")
	}
}
