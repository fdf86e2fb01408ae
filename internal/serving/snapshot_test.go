package serving

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/durable"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// buildAt builds the quick spec's one point at load 24, edited by edit
// before the defaults are applied.
func buildAt(edit func(*config.ServingSpec)) *System {
	spec := &config.ServingSpec{Loads: []float64{24}}
	edit(spec)
	spec.ApplyDefaults(true)
	sys, _ := Build(spec, 0) // a defaulted spec builds
	return sys
}

// TestRestoreRefusesOtherWorkloads: a serving checkpoint restores only
// into a build of the same workload. The network name carries the load
// point's index, not its load, so the topology hash tells these builds
// apart only by die count; the orchestrator's walk matches the rest.
func TestRestoreRefusesOtherWorkloads(t *testing.T) {
	src := buildAt(func(*config.ServingSpec) {})
	src.Net.Run(3000)
	blob, err := noc.EncodeCheckpoint(src.Net, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(*config.ServingSpec)
	}{
		{"load 1", "serving shape", func(s *config.ServingSpec) { s.Loads[0] = 1 }},
		{"bursty arrivals", "serving shape", func(s *config.ServingSpec) { s.Arrival.Process = "bursty" }},
		{"low watermark", "serving shape", func(s *config.ServingSpec) { s.LowWatermark, s.HighWatermark = 1, 8 }},
		{"high watermark", "serving shape", func(s *config.ServingSpec) { s.LowWatermark, s.HighWatermark = 2, 9 }},
		{"batch size", "serving shape", func(s *config.ServingSpec) { s.Batch = 8 }},
		{"layer list", "layer list", func(s *config.ServingSpec) { s.Layers = []config.ServingLayerSpec{{Kind: config.LayerFFN}} }},
		{"die count", "topology", func(s *config.ServingSpec) { s.Dies = 2 }},
	} {
		_, err := noc.DecodeCheckpoint(blob, buildAt(c.edit).Net)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore gave %v, want a refusal naming the %s", c.name, err, c.want)
		}
	}
}

// FuzzServingRestore is noc's FuzzRestoreState for serving state: it
// patches bytes of the orchestrator's walk — batches, command DAGs and
// (batch, index) references; no flit or message, whose layers have their
// own restore fuzzers — in a real checkpoint at load 24, mid-run, under
// either arrival process, and reseals it. A restore must refuse the bytes
// as corrupt, or accept them, re-encode to exactly them and run 64 cycles
// without a panic.
func FuzzServingRestore(f *testing.F) {
	processes := []string{"poisson", "bursty"}
	arrivals := func(k int) func(*config.ServingSpec) {
		return func(s *config.ServingSpec) { s.Arrival.Process = processes[k] }
	}
	var seeds [][]byte
	for k := range processes {
		sys := buildAt(arrivals(k))
		sys.Net.Run(1200)
		blob, err := noc.EncodeCheckpoint(sys.Net, nil)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	f.Add(uint8(0), uint32(40), []byte{0x7f})
	f.Add(uint8(1), uint32(300), []byte{2, 0, 1})

	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		k := int(which) % len(seeds)
		data := append([]byte(nil), seeds[k]...)
		// The orchestrator's walk follows its device name, last.
		start := bytes.LastIndex(data, []byte("host.orch")) + len("host.orch")
		copy(data[start+int(off)%(len(data)-start):], patch)
		durable.SealInPlace(data)

		sys := buildAt(arrivals(k))
		if _, err := noc.DecodeCheckpoint(data, sys.Net); err != nil {
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		if again, err := noc.EncodeCheckpoint(sys.Net, nil); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted checkpoint does not round-trip: %d in, %d out (%v)", len(data), len(again), err)
		}
		sys.Net.Run(64)
	})
}
