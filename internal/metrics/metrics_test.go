package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// A nil registry must be safe and free at every call site: this is the
// "metrics disabled" representation used throughout the simulator.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if r.Interval() != 0 {
		t.Fatal("nil registry has an interval")
	}
	r.Counter("c", func() uint64 { return 1 })
	r.Gauge("g", func() float64 { return 1 })
	r.Series("s", func() float64 { return 1 })
	r.TickSample(100)
	r.Sample(100)
	if snap := r.Snapshot("x", 1); snap != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestNewRejectsZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDuplicateInstrumentPanics(t *testing.T) {
	r := New(10)
	r.Counter("noc.injected", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Gauge("noc.injected", func() float64 { return 0 })
}

// TickSample must fire exactly on interval multiples (and never at
// cycle 0, before any simulated work happened).
func TestTickSampleInterval(t *testing.T) {
	r := New(10)
	v := 0.0
	r.Series("s", func() float64 { v++; return v })
	for c := uint64(0); c <= 35; c++ {
		r.TickSample(c)
	}
	snap := r.Snapshot("t", 35)
	if len(snap.Series) != 1 {
		t.Fatalf("series count = %d", len(snap.Series))
	}
	s := snap.Series[0]
	wantCycles := []uint64{10, 20, 30}
	wantValues := []float64{1, 2, 3}
	if len(s.Cycles) != len(wantCycles) {
		t.Fatalf("got %d samples, want %d", len(s.Cycles), len(wantCycles))
	}
	for i := range wantCycles {
		if s.Cycles[i] != wantCycles[i] || s.Values[i] != wantValues[i] {
			t.Fatalf("sample %d = (%d, %v), want (%d, %v)",
				i, s.Cycles[i], s.Values[i], wantCycles[i], wantValues[i])
		}
	}
}

func TestDeltaRate(t *testing.T) {
	var total uint64
	rate := DeltaRate(func() uint64 { return total }, 10)
	total = 5
	if got := rate(); got != 0.5 {
		t.Fatalf("first window rate = %v, want 0.5", got)
	}
	total = 5 // no growth
	if got := rate(); got != 0 {
		t.Fatalf("idle window rate = %v, want 0", got)
	}
	total = 25
	if got := rate(); got != 2 {
		t.Fatalf("third window rate = %v, want 2", got)
	}
}

// Snapshots of the same state must be byte-identical — the property the
// golden exports rely on.
func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *bytes.Buffer {
		r := New(5)
		r.Counter("b.count", func() uint64 { return 7 })
		r.Counter("a.count", func() uint64 { return 3 })
		r.Gauge("z.gauge", func() float64 { return 1.5 })
		r.Gauge("a.gauge", func() float64 { return 2.25 })
		r.Series("occ", func() float64 { return 4 })
		r.TickSample(5)
		r.TickSample(10)
		var buf bytes.Buffer
		if err := r.Snapshot("det", 10).WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return &buf
	}
	one, two := build(), build()
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", one, two)
	}
	if !json.Valid(one.Bytes()) {
		t.Fatal("snapshot is not valid JSON")
	}
	var decoded Snapshot
	if err := json.Unmarshal(one.Bytes(), &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if decoded.Counters["a.count"] != 3 || decoded.Counters["b.count"] != 7 {
		t.Fatalf("counters lost in round trip: %#v", decoded.Counters)
	}
	if decoded.Interval != 5 || decoded.Cycles != 10 || decoded.System != "det" {
		t.Fatalf("header lost in round trip: %#v", decoded)
	}
}
