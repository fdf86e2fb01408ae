package config

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
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

// TestCheckpointBytesGolden pins the checkpoint wire format of the
// declarative fabrics across commits (the suites above compare two runs
// of one build). multiring covers RBRG-L2 halves with credits in flight;
// mesh-failed is the fault fabric with its schedule applied by hand —
// injectors do not checkpoint — so the bytes carry a failed-bridge set,
// an armed watchdog and live retry timers. Values captured before the
// snapshot code became one walk per struct; they move only with
// sim.SnapshotVersion.
func TestCheckpointBytesGolden(t *testing.T) {
	cases := []struct {
		name, spec string
		failBridge string
		length     int
		fnv        uint64
	}{
		{"multiring", multiringSpec, "", 12853, 0xca0396c5846a3f14},
		{"mesh", meshSpec, "", 12850, 0x185e2333d75e233f},
		{"hub", hubSpec, "", 7566, 0xc858e7912c5cc3cf},
		{"mesh-failed", meshFaultSpec, "x00", 12770, 0x140fb61ae6bd0116},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			spec.Faults = nil
			sys, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(400)
			if tc.failBridge != "" {
				id, ok := sys.Net.NodeByName(tc.failBridge)
				if !ok {
					t.Fatalf("no bridge %q", tc.failBridge)
				}
				sys.Net.SetWatchdog(600, 0)
				if err := sys.Net.FailBridge(id); err != nil {
					t.Fatal(err)
				}
			}
			sys.Run(1100)
			var buf bytes.Buffer
			if err := sys.WriteCheckpoint(&buf, []byte("extra")); err != nil {
				t.Fatalf("WriteCheckpoint: %v", err)
			}
			if got := sim.FNV1a(buf.Bytes()); buf.Len() != tc.length || got != tc.fnv {
				t.Fatalf("checkpoint bytes moved: %d bytes, FNV %#x; want %d bytes, FNV %#x\n"+
					"If intentional, bump sim.SnapshotVersion and update the constants.",
					buf.Len(), got, tc.length, tc.fnv)
			}
		})
	}
}
