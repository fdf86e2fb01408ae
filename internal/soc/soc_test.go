package soc

import (
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/coherence"
	"chipletnoc/internal/traffic"
)

func TestServerConfigScale(t *testing.T) {
	cfg := DefaultServerConfig()
	if cfg.TotalCores() != 96 {
		t.Fatalf("default cores = %d, want 96 (the paper's ~100)", cfg.TotalCores())
	}
	scaled := ScaledServerConfig(28)
	if scaled.TotalCores() < 24 || scaled.TotalCores() > 40 {
		t.Fatalf("scaled-to-28 gave %d cores", scaled.TotalCores())
	}
}

func TestBuildServerCPUCoherent(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ClustersPerDie = 3 // keep the unit test quick
	s := BuildServerCPU(cfg, CoherentCores, nil)
	if len(s.Cores) != cfg.TotalCores() {
		t.Fatalf("cores = %d", len(s.Cores))
	}
	if len(s.Dirs) != cfg.ComputeDies*cfg.ClustersPerDie {
		t.Fatalf("dirs = %d", len(s.Dirs))
	}
	wantDDR := cfg.ComputeDies * min(cfg.DDRPerDie, cfg.ClustersPerDie)
	if len(s.DDRs) != wantDDR {
		t.Fatalf("ddrs = %d, want %d", len(s.DDRs), wantDDR)
	}
	if len(s.IO) != cfg.IODies*2 {
		t.Fatalf("io endpoints = %d", len(s.IO))
	}
}

func TestServerCoherentReadsComplete(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ClustersPerDie = 3
	s := BuildServerCPU(cfg, CoherentCores, nil)
	var lats []uint64
	for _, c := range s.Cores[:4] {
		c.OnComplete = func(m *chi.Message, l uint64) { lats = append(lats, l) }
	}
	for i, c := range s.Cores[:4] {
		c.Read(uint64(i) * 4096)
	}
	ok := s.Net.RunUntil(func() bool { return len(lats) == 4 }, 5000)
	if !ok {
		t.Fatalf("only %d/4 reads completed", len(lats))
	}
	for _, l := range lats {
		if l < 20 || l > 1000 {
			t.Fatalf("implausible read latency %d", l)
		}
	}
}

func TestServerIntraVsInterChipletLatency(t *testing.T) {
	// A core reading an M line owned by a same-die core must beat the
	// same read against a cross-die owner — the Table 5 structure.
	cfg := DefaultServerConfig()
	cfg.ClustersPerDie = 3
	measure := func(ownerCore int) uint64 {
		s := BuildServerCPU(cfg, CoherentCores, nil)
		reader := s.Cores[0]
		owner := s.Cores[ownerCore]
		// Pick an address homed on directory 0 (die 0, same die as the
		// reader) so only the owner's location varies.
		addr := uint64(64 * len(s.Dirs) * 100)
		if s.Homes.HomeOf(addr) != 0 {
			t.Fatalf("address not homed on dir 0")
		}
		home := s.Dirs[0]
		home.SetLine(addr, coherence.Modified, owner.Node())
		var lat uint64
		reader.OnComplete = func(m *chi.Message, l uint64) { lat = l }
		reader.Read(addr)
		if !s.Net.RunUntil(func() bool { return lat != 0 }, 10000) {
			t.Fatal("read never completed")
		}
		return lat
	}
	perDie := cfg.ClustersPerDie * cfg.CoresPerCluster
	intra := measure(1)          // same cluster/die owner
	inter := measure(perDie + 1) // owner on the other compute die
	if inter <= intra {
		t.Fatalf("intra=%d inter=%d: cross-die must cost more", intra, inter)
	}
}

func TestServerMemoryCoresTraffic(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ClustersPerDie = 2
	s := BuildServerCPU(cfg, MemoryCores, func(core int, s *ServerCPU) traffic.RequesterConfig {
		return traffic.RequesterConfig{
			Outstanding: 8, Rate: 1, ReadFraction: 1,
			Stream:      traffic.NewSeqStream(uint64(core)<<20, 64, 0),
			TargetOf:    traffic.InterleavedTargets(s.AllDDRNodes()),
			MaxRequests: 20,
		}
	})
	if len(s.MemCores) != cfg.TotalCores() {
		t.Fatalf("mem cores = %d", len(s.MemCores))
	}
	done := func() bool {
		for _, c := range s.MemCores {
			if !c.Done() {
				return false
			}
		}
		return true
	}
	if !s.Net.RunUntil(done, 100000) {
		t.Fatal("memory cores never drained")
	}
	var reads uint64
	for _, d := range s.DDRs {
		reads += d.Reads
	}
	if want := uint64(cfg.TotalCores() * 20); reads != want {
		t.Fatalf("DDR reads %d, want %d", reads, want)
	}
}

func TestBuildAIProcessor(t *testing.T) {
	cfg := DefaultAIConfig()
	a := BuildAIProcessor(cfg)
	if len(a.Cores) != 32 || len(a.L2s) != 40 || len(a.HBMs) != 6 || len(a.DMAs) != 8 {
		t.Fatalf("geometry: %d cores, %d l2, %d hbm, %d dma",
			len(a.Cores), len(a.L2s), len(a.HBMs), len(a.DMAs))
	}
}

func TestAIProcessorMovesTraffic(t *testing.T) {
	cfg := QuickAIConfig()
	a := BuildAIProcessor(cfg)
	a.Run(5000)
	var completed uint64
	for _, c := range a.Cores {
		completed += c.Completed
	}
	if completed == 0 {
		t.Fatal("no AI-core transactions completed")
	}
	var dma uint64
	for _, d := range a.DMAs {
		dma += d.Completed
	}
	if dma == 0 {
		t.Fatal("no DMA transactions completed")
	}
	// Every ring change on the request path is at most one (X-Y routing
	// through a single RBRG-L1) — verified indirectly: traffic flows and
	// the network stays conservative.
	if a.Net.InjectedFlits < completed*2 {
		t.Fatalf("flit accounting broken: inj=%d completed=%d", a.Net.InjectedFlits, completed)
	}
}

func TestAIBandwidthScalesWithCores(t *testing.T) {
	run := func(vrings int) float64 {
		cfg := DefaultAIConfig()
		cfg.VRings = vrings
		a := BuildAIProcessor(cfg)
		a.Run(3000)
		return BandwidthTBps(a.Net.DeliveredBytes, a.Net.Ticks())
	}
	small := run(2)
	large := run(8)
	if large <= small {
		t.Fatalf("bandwidth did not scale: %v -> %v TB/s", small, large)
	}
}

func TestBandwidthTBps(t *testing.T) {
	// 5333 B/cycle at 3 GHz = 16 TB/s (the paper's headline).
	got := BandwidthTBps(5333*1000, 1000)
	if got < 15.9 || got > 16.1 {
		t.Fatalf("BandwidthTBps = %v", got)
	}
	if BandwidthTBps(100, 0) != 0 {
		t.Fatal("zero cycles must give zero")
	}
}

func TestFourPackageScaleUp(t *testing.T) {
	// The paper: "we can scale the chip up to a 4P (4 chips) system with
	// a total core number of more than 300 and maintain cache
	// coherence."
	cfg := DefaultServerConfig()
	cfg.Packages = 4
	if cfg.TotalCores() <= 300 {
		t.Fatalf("4P system has %d cores, paper claims >300", cfg.TotalCores())
	}
	cfg.ClustersPerDie = 2 // keep the unit test quick
	s := BuildServerCPU(cfg, CoherentCores, nil)
	if len(s.Cores) != cfg.TotalCores() {
		t.Fatalf("cores = %d, want %d", len(s.Cores), cfg.TotalCores())
	}
	// A cross-package coherent read: owner in package 0, reader in
	// package 3, line homed on package 0.
	owner := s.Cores[0]
	perPkg := cfg.ComputeDies * cfg.ClustersPerDie * cfg.CoresPerCluster
	reader := s.Cores[3*perPkg+1]
	addr := uint64(64 * len(s.Dirs) * 7) // homed on dir 0
	s.Dirs[0].SetLine(addr, coherence.Modified, owner.Node())
	var lat uint64
	reader.OnComplete = func(m *chi.Message, l uint64) { lat = l }
	reader.Read(addr)
	if !s.Net.RunUntil(func() bool { return lat != 0 }, 100000) {
		t.Fatal("cross-package read never completed")
	}
	// The PA SerDes crossings dominate: several times the intra-package
	// latency, but bounded.
	if lat < 100 || lat > 3000 {
		t.Fatalf("cross-package latency %d cycles implausible", lat)
	}
}

func TestFourPackageAllPairsTraffic(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Packages = 2
	cfg.ClustersPerDie = 1
	s := BuildServerCPU(cfg, MemoryCores, func(core int, s *ServerCPU) traffic.RequesterConfig {
		return traffic.RequesterConfig{
			Outstanding: 4, Rate: 1, ReadFraction: 1,
			Stream:      traffic.NewSeqStream(uint64(core)<<20, 64, 0),
			TargetOf:    traffic.InterleavedTargets(s.AllDDRNodes()),
			MaxRequests: 10,
		}
	})
	done := func() bool {
		for _, c := range s.MemCores {
			if !c.Done() {
				return false
			}
		}
		return true
	}
	if !s.Net.RunUntil(done, 300000) {
		t.Fatal("cross-package memory traffic never drained")
	}
}

func TestAIIODie(t *testing.T) {
	cfg := QuickAIConfig()
	cfg.L2PerHRing = 3
	cfg.IODie = true
	a := BuildAIProcessor(cfg)
	if a.Host == nil || a.HostDMA == nil {
		t.Fatal("IO die missing")
	}
	a.Run(8000)
	if a.HostDMA.Completed == 0 {
		t.Fatal("host DMA idle")
	}
	if a.Host.Reads == 0 {
		t.Fatal("host link never read")
	}
	// Host traffic crosses the RBRG-L2 both ways.
	if a.Net.InFlight() > uint64(a.Net.InjectedFlits) {
		t.Fatal("accounting broken")
	}
	// Without the IO die the host endpoints are absent.
	cfg.IODie = false
	b := BuildAIProcessor(cfg)
	if b.Host != nil || b.HostDMA != nil {
		t.Fatal("IO die built despite IODie=false")
	}
}
