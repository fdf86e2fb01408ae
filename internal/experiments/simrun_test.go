package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/trace"
)

// TestSimRunQuickAIMatchesGolden pins the service's smallest job to the
// same constants as internal/soc's golden digest test: the quick
// AI-Processor spec is exactly the golden configuration, so a drift here
// means the daemon would serve different numbers than the test suite
// certifies. A traced run (SimControl.Tracer) must hit the same numbers:
// the tracer observes the run, it does not change it.
func TestSimRunQuickAIMatchesGolden(t *testing.T) {
	tracer := trace.New(1 << 10)
	for _, ctl := range []*SimControl{nil, {Tracer: tracer}} {
		res, err := RunSim(SimSpec{Topology: "ai-processor", Scale: "quick"}, nil, ctl)
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		if res.Injected != 0x30c3 || res.Delivered != 0x2b41 ||
			res.Deflections != 0x46ae || res.Hops != 0x4c154 ||
			res.LatencySamples != 0x2b41 || res.LatencyFNV != "0x16a68fe7dc337024" {
			t.Fatalf("quick AI run (traced: %v) drifted from the golden digest: %+v", ctl != nil, res)
		}
	}
	if tracer.Len() == 0 {
		t.Fatal("the traced run recorded no events")
	}
}

// TestSimRunSuspendResume suspends a run mid-flight, resumes it from the
// checkpoint in a fresh RunSim call, and requires the rendered CSV to be
// byte-identical to an uninterrupted run's.
func TestSimRunSuspendResume(t *testing.T) {
	for _, topo := range []string{"ai-processor", "server-cpu"} {
		spec := SimSpec{Topology: topo, Scale: "quick", Cycles: 2000, CheckpointEvery: 700}

		want, err := RunSim(spec, nil, nil)
		if err != nil {
			t.Fatalf("%s uninterrupted: %v", topo, err)
		}

		polls := 0
		_, err = RunSim(spec, nil, &SimControl{Interrupt: func() InterruptKind {
			polls++
			if polls == 2 {
				return SuspendRun
			}
			return KeepRunning
		}})
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("%s: expected *Interrupted, got %v", topo, err)
		}
		if intr.Cycle != 1400 {
			t.Fatalf("%s: suspended at cycle %d, want 1400", topo, intr.Cycle)
		}

		got, err := RunSim(spec, intr.Checkpoint, nil)
		if err != nil {
			t.Fatalf("%s resume: %v", topo, err)
		}
		if got.CSV() != want.CSV() {
			t.Fatalf("%s: resumed CSV differs from uninterrupted:\nwant: %s\ngot:  %s", topo, want.CSV(), got.CSV())
		}
	}
}

// TestSimRunFaultScheduleSuspendResume: a spec with a fault schedule and a
// checkpoint cadence is admitted, suspends with state (not back to cycle
// 0) while its bridge is dead and again between the flit faults and the
// repair, and resumes to the uninterrupted run's CSV.
func TestSimRunFaultScheduleSuspendResume(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "config", "testdata", "diff-mesh-faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec := SimSpec{Topology: "custom", Cycles: 1500, Config: string(doc)}
	want, err := RunSim(spec, nil, nil)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	if want.Dropped == 0 {
		t.Fatal("the fault schedule dropped nothing")
	}
	suspend := &SimControl{Interrupt: func() InterruptKind { return SuspendRun }}
	var resume []byte
	for _, leg := range []struct{ every, stopsAt uint64 }{{600, 600}, {400, 1000}} {
		spec.CheckpointEvery = leg.every
		if _, err := spec.Normalize(); err != nil {
			t.Fatalf("fault schedule with checkpoint_every %d not admitted: %v", leg.every, err)
		}
		_, err := RunSim(spec, resume, suspend)
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("expected *Interrupted, got %v", err)
		}
		if intr.Cycle != leg.stopsAt || len(intr.Checkpoint) == 0 {
			t.Fatalf("suspended at cycle %d with a %d-byte checkpoint, want cycle %d with state",
				intr.Cycle, len(intr.Checkpoint), leg.stopsAt)
		}
		resume = intr.Checkpoint
	}
	got, err := RunSim(spec, resume, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("resumed CSV differs from uninterrupted:\nwant: %s\ngot:  %s", want.CSV(), got.CSV())
	}
}

// TestSimRunCancel checks the cooperative cancel path.
func TestSimRunCancel(t *testing.T) {
	spec := SimSpec{Topology: "ai-processor", Scale: "quick", Cycles: 100000, CheckpointEvery: 256}
	_, err := RunSim(spec, nil, &SimControl{Interrupt: func() InterruptKind { return CancelRun }})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
}

// TestSimRunPeriodicCheckpoints checks OnCheckpoint cadence and that any
// periodic checkpoint (not just a suspension's) resumes correctly.
func TestSimRunPeriodicCheckpoints(t *testing.T) {
	spec := SimSpec{Topology: "ai-processor", Scale: "quick", Cycles: 2000, CheckpointEvery: 600}
	var cycles []uint64
	var last []byte
	want, err := RunSim(spec, nil, &SimControl{OnCheckpoint: func(data []byte, cycle uint64) error {
		cycles = append(cycles, cycle)
		last = append([]byte(nil), data...)
		return nil
	}})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if len(cycles) != 3 || cycles[0] != 600 || cycles[1] != 1200 || cycles[2] != 1800 {
		t.Fatalf("checkpoint cycles = %v, want [600 1200 1800]", cycles)
	}
	got, err := RunSim(spec, last, nil)
	if err != nil {
		t.Fatalf("resume from periodic checkpoint: %v", err)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("resume from cycle-1800 checkpoint diverged:\nwant: %sgot:  %s", want.CSV(), got.CSV())
	}
}

// TestSimRunRejectsForeignCheckpoint: a checkpoint resumes only the spec
// it was taken for.
func TestSimRunRejectsForeignCheckpoint(t *testing.T) {
	spec := SimSpec{Topology: "ai-processor", Scale: "quick", Cycles: 2000, CheckpointEvery: 500}
	polls := 0
	_, err := RunSim(spec, nil, &SimControl{Interrupt: func() InterruptKind {
		polls++
		if polls == 1 {
			return SuspendRun
		}
		return KeepRunning
	}})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("expected *Interrupted, got %v", err)
	}

	other := spec
	other.Seed = 9
	if _, err := RunSim(other, intr.Checkpoint, nil); err == nil {
		t.Fatal("checkpoint accepted under a different seed")
	}
	wrongTopo := spec
	wrongTopo.Topology = "server-cpu"
	if _, err := RunSim(wrongTopo, intr.Checkpoint, nil); err == nil {
		t.Fatal("checkpoint accepted under a different topology")
	}
}

// TestSimRunMetricsStitchedAcrossResume: with metrics on, a resumed run
// must report the same series sample counts as an uninterrupted one.
func TestSimRunMetricsStitchedAcrossResume(t *testing.T) {
	spec := SimSpec{Topology: "ai-processor", Scale: "quick", Cycles: 2000,
		CheckpointEvery: 700, MetricsInterval: 100}
	want, err := RunSim(spec, nil, nil)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if want.Metrics == nil || len(want.Metrics.Series) == 0 {
		t.Fatal("metrics missing from the uninterrupted run")
	}

	polls := 0
	_, err = RunSim(spec, nil, &SimControl{Interrupt: func() InterruptKind {
		polls++
		if polls == 1 {
			return SuspendRun
		}
		return KeepRunning
	}})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("expected *Interrupted, got %v", err)
	}
	got, err := RunSim(spec, intr.Checkpoint, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Metrics == nil || len(got.Metrics.Series) != len(want.Metrics.Series) {
		t.Fatalf("resumed metrics series count = %d, want %d", len(got.Metrics.Series), len(want.Metrics.Series))
	}
	for i, s := range got.Metrics.Series {
		w := want.Metrics.Series[i]
		if s.Name != w.Name || len(s.Cycles) != len(w.Cycles) {
			t.Fatalf("series %q: %d samples after resume, want %q with %d",
				s.Name, len(s.Cycles), w.Name, len(w.Cycles))
		}
	}
	// Counters observe restored cumulative device state, so they must be
	// exact — not just similar.
	for name, v := range want.Metrics.Counters {
		if got.Metrics.Counters[name] != v {
			t.Fatalf("counter %q = %d after resume, want %d", name, got.Metrics.Counters[name], v)
		}
	}
}

const customSimConfig = `{
  "name": "custom-sim",
  "rings": [
    {"name": "compute", "positions": 16, "full": true},
    {"name": "memory", "positions": 8}
  ],
  "devices": [
    {"name": "core0", "type": "requester", "ring": "compute", "position": 0,
     "outstanding": 8, "rate": 1.0, "readFraction": 0.8, "targets": ["hbm0"]},
    {"name": "core1", "type": "requester", "ring": "compute", "position": 2,
     "outstanding": 8, "rate": 1.0, "readFraction": 0.5, "targets": ["hbm0"]},
    {"name": "hbm0", "type": "memory", "ring": "memory", "position": 0,
     "accessCycles": 60, "bytesPerCycle": 167, "queueDepth": 64}
  ],
  "bridges": [
    {"name": "br0", "type": "rbrg-l2",
     "stations": [{"ring": "compute", "position": 15}, {"ring": "memory", "position": 7}]}
  ]
}`

// TestSimRunCustomTopologyResume drives a config-file-built system
// through the same suspend/resume protocol as the soc builds.
func TestSimRunCustomTopologyResume(t *testing.T) {
	spec := SimSpec{Topology: "custom", Config: customSimConfig, Cycles: 2000, CheckpointEvery: 800}
	want, err := RunSim(spec, nil, nil)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	if want.Delivered == 0 {
		t.Fatal("custom system delivered nothing; the scenario is not exercising the network")
	}
	polls := 0
	_, err = RunSim(spec, nil, &SimControl{Interrupt: func() InterruptKind {
		polls++
		if polls == 1 {
			return SuspendRun
		}
		return KeepRunning
	}})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("expected *Interrupted, got %v", err)
	}
	got, err := RunSim(spec, intr.Checkpoint, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("custom-topology resume diverged:\nwant: %sgot:  %s", want.CSV(), got.CSV())
	}
}

// TestCustomSimMetricsSayCustom pins the system label of a JSON
// topology's metrics snapshot, the one -exp simrun -metrics-out writes, to
// "custom": the topology's kind, not the spec's name ("custom-sim" here).
// The snapshot rides in every sim result, so naming the spec instead
// would move nocd's result bytes and every cached payload of a custom
// run.
func TestCustomSimMetricsSayCustom(t *testing.T) {
	res, err := RunSim(SimSpec{Topology: "custom", Config: customSimConfig, Cycles: 600, MetricsInterval: 100}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Metrics.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		System *string `json:"system"`
	}
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.System == nil || *snap.System != "custom" {
		t.Fatalf("snapshot's system is %v, want \"custom\":\n%.200s", snap.System, out.String())
	}
}

// TestSimSpecNormalize checks defaulting and rejection.
func TestSimSpecNormalize(t *testing.T) {
	s, err := SimSpec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology != "ai-processor" || s.Scale != "quick" || s.Cycles != 3000 {
		t.Fatalf("defaults = %+v", s)
	}
	if _, err := (SimSpec{Topology: "mesh"}).Normalize(); err == nil {
		t.Fatal("accepted unknown topology")
	}
	if _, err := (SimSpec{Scale: "huge"}).Normalize(); err == nil {
		t.Fatal("accepted unknown scale")
	}
	if _, err := (SimSpec{Topology: "custom"}).Normalize(); err == nil {
		t.Fatal("accepted custom topology without a config document")
	}
	if _, err := (SimSpec{Config: "{}"}).Normalize(); err == nil {
		t.Fatal("accepted a config document on a built-in topology")
	}
	if _, err := (SimSpec{Topology: "custom", Config: customSimConfig, Seed: 3}).Normalize(); err == nil {
		t.Fatal("accepted a seed for the custom topology")
	}
}
