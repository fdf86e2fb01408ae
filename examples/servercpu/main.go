// Server-CPU example: build the paper's 96-core two-compute-die package,
// prime a cache line into Modified state on one die, and watch a core on
// the other die fetch it cache-to-cache across the RBRG-L2 bridge — the
// Table 5 experiment in miniature.
package main

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/coherence"
	"chipletnoc/internal/soc"
)

func main() {
	cfg := soc.DefaultServerConfig()
	s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
	fmt.Printf("built %d cores, %d directories, %d L3 slices, %d DDR channels\n",
		len(s.Cores), len(s.Dirs), len(s.Slices), len(s.DDRs))

	// Core 0 (die 0) owns a line in Modified state; the home directory
	// is on die 0 as well.
	owner := s.Cores[0]
	addr := uint64(64 * len(s.Dirs) * 4) // homed on directory 0
	s.Dirs[0].SetLine(addr, coherence.Modified, owner.Node())

	// A reader on the same die, then a reader on the other compute die.
	intraReader := s.Cores[2]
	interReader := s.Cores[cfg.ClustersPerDie*cfg.CoresPerCluster+2]

	measure := func(reader *coherence.CoreAgent, label string) {
		var lat uint64
		reader.OnComplete = func(m *chi.Message, l uint64) { lat = l }
		reader.Read(addr)
		if !s.Net.RunUntil(func() bool { return lat != 0 }, 100000) {
			fmt.Printf("%s: read never completed!\n", label)
			return
		}
		fmt.Printf("%s read of an M line: %d cycles\n", label, lat)
		// Reset ownership for the next measurement.
		s.Dirs[0].SetLine(addr, coherence.Modified, owner.Node())
	}
	measure(intraReader, "intra-chiplet")
	measure(interReader, "inter-chiplet")

	fmt.Printf("network: %d flits delivered, %d deflections, %d snoops served\n",
		s.Net.DeliveredFlits, s.Net.Deflections, owner.SnoopsServed)
}
