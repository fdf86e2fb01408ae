package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// goldenSeed is the seed whose simulated statistics golden.json pins.
// Other seeds rest on the self-consistency checks alone (par equals seq,
// resumed equals plain, warm equals cold, coalesced members equal,
// restarted equals uninterrupted).
const goldenSeed = 1

//go:embed golden.json
var goldenBytes []byte

// goldenFile pins, per "<workload>/<size>", every simulated statistic a
// run reports. A host-speed change must leave all of them identical.
type goldenFile struct {
	Seed    uint64                       `json:"seed"`
	Entries map[string]map[string]string `json:"entries"`
}

// loadGolden reads the embedded file, or, when path is set (an
// -update-golden run, which may follow another one that already rewrote
// the file), the file on disk.
func loadGolden(path string) (*goldenFile, error) {
	data := goldenBytes
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	g := &goldenFile{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	if g.Entries == nil {
		g.Entries = map[string]map[string]string{}
	}
	return g, nil
}

// write stores the file next to the sources; the next build embeds it.
func (g *goldenFile) write(path string) error {
	g.Seed = goldenSeed
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
