package config

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// The declarative reference fabrics: internal/noc's gated-vs-forced-awake
// suite runs the same four documents from testdata/; here they pin the
// checkpoint wire format.

// multiringSpec chains four full rings with RBRG-L2 bridges.
var multiringSpec = readSpec("diff-multiring.json")

// meshSpec crosses two vertical and two horizontal rings with RBRG-L1
// intersections — the AI die's fabric in miniature.
var meshSpec = readSpec("diff-mesh.json")

// hubSpec attaches three spoke rings to one central hub ring — the
// IO-die pattern.
var hubSpec = readSpec("diff-hub.json")

// meshFaultSpec is meshSpec plus a fault schedule killing and repairing
// one intersection mid-run with a watchdog armed.
var meshFaultSpec = readSpec("diff-mesh-faults.json")

// readSpec loads one of the reference fabrics from testdata/.
func readSpec(name string) string {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestPartitionSpecKnobRejectsNegative pins the range check on the two
// accepted, inert spec keys, which guards outside input: -1 was the auto
// sentinel and must still parse and build; anything below it must not
// parse. A negative lookahead must not parse either.
func TestPartitionSpecKnobRejectsNegative(t *testing.T) {
	with := func(keys string) []byte {
		return []byte(strings.Replace(multiringSpec, "{", "{"+keys+",", 1))
	}
	spec, err := Parse(with(`"partitions":-1,"lookahead":8`))
	if err != nil {
		t.Fatalf("partitions=-1 must parse: %v", err)
	}
	if _, err := spec.Build(); err != nil {
		t.Fatalf("partitions=-1 must build: %v", err)
	}
	if _, err := Parse(with(`"partitions":-2`)); err == nil {
		t.Fatal("partitions below -1 must not parse")
	}
	if _, err := Parse(with(`"lookahead":-1`)); err == nil {
		t.Fatal("negative lookahead must not parse")
	}
}

// TestCheckpointBytesGolden pins the checkpoint wire format of the
// declarative fabrics across commits (differential suites compare two
// runs of one build and cannot see a change both share). multiring covers
// RBRG-L2 halves with credits in flight; mesh-failed is the fault fabric
// with its kill applied by hand and no injector attached — the bytes were
// captured before injectors could checkpoint, and one would add its
// section — so they carry a failed-bridge set, an armed watchdog and live
// retry timers. Values captured at sim.SnapshotVersion 7; they move only
// with it.
func TestCheckpointBytesGolden(t *testing.T) {
	cases := []struct {
		name, spec string
		failBridge string
		length     int
		fnv        uint64
	}{
		{"multiring", multiringSpec, "", 2292, 0x507d45e9473266de},
		{"mesh", meshSpec, "", 1788, 0x8302ab44a238ba07},
		{"hub", hubSpec, "", 1293, 0x1f49b7d2c704a023},
		{"mesh-failed", meshFaultSpec, "x00", 1864, 0x81383b7dabb1d7bc},
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
			if err := noc.WriteCheckpoint(&buf, sys.Net, []byte("extra")); err != nil {
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
