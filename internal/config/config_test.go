package config

import (
	"bytes"
	"strings"
	"testing"

	"chipletnoc/internal/noc"
)

const validSpec = `{
  "name": "test-soc",
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

func TestParseAndBuild(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "test-soc" || len(spec.Rings) != 2 || len(spec.Devices) != 3 {
		t.Fatalf("parsed: %+v", spec)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Requesters) != 2 || len(sys.Memories) != 1 {
		t.Fatalf("built %d requesters, %d memories", len(sys.Requesters), len(sys.Memories))
	}
}

func TestBuiltSystemMovesTraffic(t *testing.T) {
	spec, _ := Parse([]byte(validSpec))
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5000)
	if sys.Requesters["core0"].Completed == 0 {
		t.Fatal("core0 idle")
	}
	if sys.Memories["hbm0"].Reads == 0 {
		t.Fatal("hbm0 never read")
	}
	if sys.Net.InjectedFlits == 0 {
		t.Fatal("no flits injected")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"no name", `{"rings":[{"name":"r","positions":4}]}`, "needs a name"},
		{"no rings", `{"name":"x"}`, "at least one ring"},
		{"dup ring", `{"name":"x","rings":[{"name":"r","positions":4},{"name":"r","positions":4}]}`, "duplicate ring"},
		{"tiny ring", `{"name":"x","rings":[{"name":"r","positions":1}]}`, "at least 2 positions"},
		{"unknown ring", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"memory","ring":"zzz","position":0,
			"accessCycles":1,"bytesPerCycle":1,"queueDepth":1}]}`, "unknown ring"},
		{"bad position", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"memory","ring":"r","position":9,
			"accessCycles":1,"bytesPerCycle":1,"queueDepth":1}]}`, "outside ring"},
		{"bad type", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"teapot","ring":"r","position":0}]}`, "unknown type"},
		{"missing target", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"requester","ring":"r","position":0,"targets":["nope"]}]}`, "unknown memory"},
		{"no targets", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"requester","ring":"r","position":0}]}`, "needs targets"},
		{"dup device", `{"name":"x","rings":[{"name":"r","positions":4}],
			"devices":[{"name":"d","type":"memory","ring":"r","position":0,"accessCycles":1,"bytesPerCycle":1,"queueDepth":1},
			           {"name":"d","type":"memory","ring":"r","position":2,"accessCycles":1,"bytesPerCycle":1,"queueDepth":1}]}`, "duplicate device"},
		{"bridge stations", `{"name":"x","rings":[{"name":"r","positions":4}],
			"bridges":[{"name":"b","type":"rbrg-l2","stations":[{"ring":"r","position":0}]}]}`, "at least 2 stations"},
		{"bridge type", `{"name":"x","rings":[{"name":"a","positions":4},{"name":"b","positions":4}],
			"bridges":[{"name":"b","type":"wormhole","stations":[{"ring":"a","position":0},{"ring":"b","position":0}]}]}`, "unknown type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := Parse([]byte(c.json))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = spec.Build()
			if err == nil {
				t.Fatal("Build accepted invalid spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestNameLimitRoundTrips: a system, device or bridge name at the limit a
// checkpoint carries (noc.MaxNameBytes) builds, checkpoints and restores;
// one byte longer is a spec error — it used to build, run and write a
// checkpoint every restore then refused as corrupt.
func TestNameLimitRoundTrips(t *testing.T) {
	for _, old := range []string{`"test-soc"`, `"core1"`, `"br0"`} {
		for _, tc := range []struct {
			length int
			ok     bool
		}{{noc.MaxNameBytes, true}, {noc.MaxNameBytes + 1, false}} {
			doc := strings.Replace(validSpec, old, `"`+strings.Repeat("n", tc.length)+`"`, 1)
			spec, err := Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := spec.Build()
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
					t.Errorf("%s at %d bytes: Build error %v, want a name-limit error", old, tc.length, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s at %d bytes: %v", old, tc.length, err)
			}
			sys.Run(300)
			var blob bytes.Buffer
			if err := noc.WriteCheckpoint(&blob, sys.Net, nil); err != nil {
				t.Fatalf("%s at %d bytes: checkpoint: %v", old, tc.length, err)
			}
			twin, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := noc.ReadCheckpoint(&blob, twin.Net); err != nil {
				t.Errorf("%s at %d bytes: the checkpoint it wrote does not restore: %v", old, tc.length, err)
			}
		}
	}
}

func TestDisconnectedRingsRejected(t *testing.T) {
	spec, _ := Parse([]byte(`{
	  "name": "x",
	  "rings": [{"name": "a", "positions": 4}, {"name": "b", "positions": 4}],
	  "devices": [
	    {"name": "m1", "type": "memory", "ring": "a", "position": 0,
	     "accessCycles": 1, "bytesPerCycle": 1, "queueDepth": 1},
	    {"name": "m2", "type": "memory", "ring": "b", "position": 0,
	     "accessCycles": 1, "bytesPerCycle": 1, "queueDepth": 1}
	  ]
	}`))
	if _, err := spec.Build(); err == nil {
		t.Fatal("partitioned network accepted")
	}
}

func TestRBRGL1Bridge(t *testing.T) {
	spec, _ := Parse([]byte(`{
	  "name": "mesh",
	  "rings": [{"name": "v", "positions": 8, "full": true}, {"name": "h", "positions": 8, "full": true}],
	  "devices": [
	    {"name": "core", "type": "requester", "ring": "v", "position": 0, "targets": ["l2"]},
	    {"name": "l2", "type": "memory", "ring": "h", "position": 0,
	     "accessCycles": 6, "bytesPerCycle": 256, "queueDepth": 32}
	  ],
	  "bridges": [
	    {"name": "x", "type": "rbrg-l1",
	     "stations": [{"ring": "v", "position": 4}, {"ring": "h", "position": 4}]}
	  ]
	}`))
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2000)
	if sys.Requesters["core"].Completed == 0 {
		t.Fatal("cross-ring traffic never completed")
	}
}
