package config

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/noc"
)

// The config-level partition differential suite extends the soc suite to
// the declarative reference fabrics — a bridged multi-ring chain, a
// mesh-of-rings and a hub-and-spoke — proving the conservative-time
// engine is bit-identical to the sequential engine on arbitrary
// user-described topologies, not just the two paper systems, and that
// the partitions knob in a spec document is behaviour-neutral.

// multiringSpec chains four full rings with RBRG-L2 bridges: the
// simplest topology whose partitions only communicate through
// serialized boundary devices.
var multiringSpec = readSpec("diff-multiring.json")

// meshSpec crosses two vertical and two horizontal rings with RBRG-L1
// intersections — the AI die's fabric in miniature, where every ring
// touches every other partition.
var meshSpec = readSpec("diff-mesh.json")

// hubSpec attaches three spoke rings to one central hub ring — the
// IO-die pattern, with a deliberately unbalanced partition weight (the
// hub is bigger than any spoke).
var hubSpec = readSpec("diff-hub.json")

// meshFaultSpec is meshSpec plus a fault schedule killing and repairing
// one intersection mid-run with a watchdog armed: the partitioned engine
// must fall back for the failure window and still match bit for bit.
var meshFaultSpec = readSpec("diff-mesh-faults.json")

// readSpec loads one of the differential reference fabrics from
// testdata/, where internal/noc's gated-vs-forced-awake suite reads the
// same four documents.
func readSpec(name string) string {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		panic(err)
	}
	return string(data)
}

// configDigest is the comparable outcome of one run: the exported
// counters plus an FNV-1a hash over per-flit latencies in delivery
// order.
type configDigest struct {
	Injected, Delivered, Dropped uint64
	Deflections, Hops            uint64
	Latencies, LatencyFNV        uint64
}

// runSpec builds specJSON at the given partition count, runs it, and
// returns the digest plus the final checkpoint bytes (nil when the spec
// carries a fault schedule — injectors do not checkpoint).
func runSpec(t *testing.T, specJSON string, parts, cycles int) (configDigest, []byte) {
	t.Helper()
	spec, err := Parse([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Partitions = parts
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var d configDigest
	sys.Net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], cycles)
		h.Write(b[:])
		d.Latencies++
	})
	sys.Run(cycles)
	d.Injected = sys.Net.InjectedFlits
	d.Delivered = sys.Net.DeliveredFlits
	d.Dropped = sys.Net.DroppedFlits
	d.Deflections = sys.Net.Deflections
	d.Hops = sys.Net.TotalHops
	d.LatencyFNV = h.Sum64()
	if err := sys.Net.CheckConservation(); err != nil {
		t.Fatalf("partitions=%d: %v", parts, err)
	}
	if sys.Injector != nil {
		return d, nil
	}
	var ckpt bytes.Buffer
	if err := sys.WriteCheckpoint(&ckpt, nil); err != nil {
		t.Fatalf("partitions=%d: checkpoint: %v", parts, err)
	}
	return d, ckpt.Bytes()
}

// TestPartitionEquivalenceConfigTopologies sweeps every declarative
// reference fabric across partition counts, requiring the digest and
// checkpoint bytes to match the sequential run exactly. Counts beyond
// the ring count (8 on 4-ring fabrics) exercise the clamp.
func TestPartitionEquivalenceConfigTopologies(t *testing.T) {
	cases := []struct {
		name, spec string
		cycles     int
	}{
		{"multiring", multiringSpec, 4000},
		{"mesh", meshSpec, 4000},
		{"hub", hubSpec, 4000},
		{"mesh-faults", meshFaultSpec, 3000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqDigest, seqCkpt := runSpec(t, tc.spec, 1, tc.cycles)
			if seqDigest.Delivered == 0 {
				t.Fatalf("sequential reference delivered nothing: %+v", seqDigest)
			}
			for _, parts := range []int{2, 4, 8} {
				digest, ckpt := runSpec(t, tc.spec, parts, tc.cycles)
				if digest != seqDigest {
					t.Errorf("partitions=%d: digest diverged\n got: %+v\nwant: %+v", parts, digest, seqDigest)
				}
				if !bytes.Equal(ckpt, seqCkpt) {
					t.Errorf("partitions=%d: checkpoint bytes diverged (%d vs %d bytes)", parts, len(ckpt), len(seqCkpt))
				}
			}
		})
	}
}

// TestPartitionSpecKnobRejectsNegative pins the validation path: -1 is
// the auto sentinel and must build; anything below it must not. A bad
// lookahead must not build either.
func TestPartitionSpecKnobRejectsNegative(t *testing.T) {
	spec, err := Parse([]byte(multiringSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.Partitions = -1
	if _, err := spec.Build(); err != nil {
		t.Fatalf("partitions=-1 (auto) must build: %v", err)
	}
	spec.Partitions = -2
	if _, err := spec.Build(); err == nil {
		t.Fatal("partitions below -1 must not build")
	}
	spec.Partitions = 0
	spec.Lookahead = -1
	if _, err := spec.Build(); err == nil {
		t.Fatal("negative lookahead must not build")
	}
}
