package serving

import (
	"strings"
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
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
