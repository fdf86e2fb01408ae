package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/serving"
)

// TestServingSweepQuick runs the default quick sweep end to end and
// checks the report invariants: one row per load, monotone load column,
// a knee inside the sweep, and a saturated flag that matches it.
func TestServingSweepQuick(t *testing.T) {
	res, err := RunServingDoc("", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Doc == "" {
		t.Error("result carries no canonical spec document")
	}
	if len(res.Points) != 4 {
		t.Fatalf("quick sweep produced %d points, want 4", len(res.Points))
	}
	for i, p := range res.Points {
		if i > 0 && p.Load <= res.Points[i-1].Load {
			t.Errorf("load column not increasing at row %d", i)
		}
		if p.Admitted == 0 || p.Completed == 0 {
			t.Errorf("load %v admitted=%d completed=%d", p.Load, p.Admitted, p.Completed)
		}
		if p.P50 > p.P99 || p.P99 > p.Max {
			t.Errorf("load %v quantiles out of order: p50=%v p99=%v max=%v", p.Load, p.P50, p.P99, p.Max)
		}
	}
	if res.KneeLoad == 0 {
		t.Error("quick sweep detected no saturation knee; the heaviest load should saturate")
	}
	if last := res.Points[len(res.Points)-1]; last.StallCycles == 0 {
		t.Error("heaviest load recorded no watermark stalls")
	}
	csv := res.CSV()
	if !strings.Contains(csv, ",1,") || !strings.HasPrefix(csv, "load,") {
		t.Errorf("CSV missing saturated flag or header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 5 {
		t.Errorf("CSV has %d lines, want 5", got)
	}
	if !strings.Contains(res.Render(), "saturation knee") {
		t.Errorf("render missing knee line:\n%s", res.Render())
	}
}

// TestServingSweepGolden pins the quick sweep's per-point digests. These
// are the acceptance-criterion constants: any change to the arrival
// process, DAG expansion, fabric timing or sketch encoding shows up
// here. Update them only for an intentional behaviour change.
func TestServingSweepGolden(t *testing.T) {
	res, err := RunServingDoc("", Quick)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1f0fa49aa34c1c72",
		"2039ea7040560f19",
		"c6f1ae989e648da7",
		"f86d377d0cfa03a4",
	}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, p := range res.Points {
		if p.Digest != want[i] {
			t.Errorf("load %v digest %s, want golden %s", p.Load, p.Digest, want[i])
		}
	}
	if res.KneeLoad != 64 {
		t.Errorf("knee at %v, want golden 64", res.KneeLoad)
	}
}

// TestServingSweepWorkerDeterminism is the byte-identity half of the
// acceptance criterion: the full CSV must not depend on how many workers
// the pool ran the load points on.
func TestServingSweepWorkerDeterminism(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	base, err := RunServingDoc("", Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		SetParallelism(workers)
		got, err := RunServingDoc("", Quick)
		if err != nil {
			t.Fatal(err)
		}
		if got.CSV() != base.CSV() {
			t.Errorf("workers=%d produced different CSV bytes:\n%s\nvs workers=1:\n%s", workers, got.CSV(), base.CSV())
		}
	}
}

// TestServingDocRoundTrip checks that the canonical document is a fixed
// point: normalizing it again changes nothing, so CLI and daemon cache
// keys derived from it agree.
func TestServingDocRoundTrip(t *testing.T) {
	doc, _, err := NormalizeServingDoc(`{"seed": 7, "loads": [2, 10]}`, Quick)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := NormalizeServingDoc(doc, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if doc != again {
		t.Errorf("canonical doc not a fixed point:\n%s\n%s", doc, again)
	}
	if _, _, err := NormalizeServingDoc(`{"loads": [0]}`, Quick); err == nil {
		t.Error("zero-rate load survived normalization")
	}
}

// TestServingPointResumes checkpoints a load point and resumes it into a
// fresh build — at cycle 1, mid-run and during a watermark stall, for
// both arrival processes. The restored system re-encodes to exactly the
// checkpoint it was loaded from, and the resumed point's row is
// byte-identical to the uninterrupted run's.
func TestServingPointResumes(t *testing.T) {
	for _, process := range []string{"poisson", "bursty"} {
		_, spec, err := NormalizeServingDoc(fmt.Sprintf(`{"loads":[24],"cycles":6000,"arrival":{"process":%q}}`, process), Quick)
		if err != nil {
			t.Fatal(err)
		}
		build := func() *serving.System { sys, _ := serving.Build(spec, 0); return sys } // a normalized spec builds
		row := func(p ServingPoint) string { return (&ServingResult{Points: []ServingPoint{p}}).CSV() }
		want := row(runServingPoint(spec, 0))
		// The first stall cycle counted leaves the orchestrator stalled.
		probe := build()
		for probe.Orch.StallCycles() == 0 && probe.Net.Ticks() < spec.Cycles {
			probe.Net.Run(1)
		}
		if probe.Orch.StallCycles() == 0 {
			t.Fatalf("%s: no watermark stall in %d cycles", process, spec.Cycles)
		}
		for _, at := range []int{1, int(spec.Cycles) / 2, int(probe.Net.Ticks())} {
			sys, resumed := build(), build()
			sys.Net.Run(at)
			blob, err := noc.EncodeCheckpoint(sys.Net, nil)
			if err == nil {
				_, err = noc.DecodeCheckpoint(blob, resumed.Net)
			}
			if err != nil {
				t.Fatalf("%s: checkpoint at cycle %d: %v", process, at, err)
			}
			if again, _ := noc.EncodeCheckpoint(resumed.Net, nil); !bytes.Equal(again, blob) {
				t.Fatalf("%s: restored at cycle %d, re-encodes to %d bytes, not the %d loaded", process, at, len(again), len(blob))
			}
			resumed.Net.Run(int(spec.Cycles) - at)
			if got := row(servingRow(resumed)); got != want {
				t.Errorf("%s: resumed at cycle %d\n got: %s\nwant: %s", process, at, got, want)
			}
		}
	}
}
