// Package soc composes the substrates into the two complete systems the
// paper evaluates: the Server-CPU package (Section 4.2: compute dies with
// full rings, IO dies with half rings, joined by RBRG-L2 bridges) and the
// AI-Processor (Section 4.3: a multi-ring mesh where vertical rings carry
// AI cores and horizontal rings carry the memory system).
package soc

import (
	"fmt"

	"chipletnoc/internal/coherence"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

// ServerConfig sizes the Server-CPU package.
type ServerConfig struct {
	// Packages is the number of sockets; the IO dies' Protocol Adapters
	// (PA) link packages over SerDes so a 4P system exceeds 300 cores
	// under one coherence domain (Section 4.2). Zero means 1.
	Packages int
	// ComputeDies and IODies count the chiplets per package (the
	// paper's system is 2 + 2).
	ComputeDies, IODies int
	// ClustersPerDie x CoresPerCluster gives the core count: the default
	// 2 x 12 x 4 = 96 is the paper's "nearly one hundred cores".
	ClustersPerDie, CoresPerCluster int
	// L3SlicesPerDie is the number of separate L3 data slices per die.
	L3SlicesPerDie int
	// DDRPerDie is the number of DDR channels per compute die.
	DDRPerDie int
	// TagLookup, SliceAccess and SnoopCycles are the component
	// latencies of the coherence engines.
	TagLookup, SliceAccess, SnoopCycles int
	// Outstanding is each core's CHI transaction-table size.
	Outstanding int
	// DDR calibrates the memory channels.
	DDR mem.Config
	// Bridge calibrates the inter-die RBRG-L2s; the package-to-package
	// Protocol Adapter links are Bridge with SerDes-class latency.
	Bridge noc.RBRGL2Config

	// Seed perturbs every RNG stream in the build; zero keeps the
	// historical streams (the golden digests), other values give
	// statistically independent replicas of the same system.
	Seed uint64

	// Partitions is ignored; kept only because bench/ compiles against it.
	Partitions int
}

// DefaultServerConfig returns the paper-scale system: 96 cores over two
// compute dies plus two IO dies.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ComputeDies: 2, IODies: 2,
		ClustersPerDie: 12, CoresPerCluster: 4,
		L3SlicesPerDie: 4, DDRPerDie: 4,
		TagLookup: 2, SliceAccess: 6, SnoopCycles: 4,
		Outstanding: 16,
		DDR:         mem.DDR4Channel(),
		Bridge:      noc.DefaultRBRGL2Config(),
	}
}

// ScaledServerConfig shrinks the system to approximately the given core
// count for the paper's fair-comparison runs ("we also scale down our
// system to baseline products").
func ScaledServerConfig(cores int) ServerConfig {
	cfg := DefaultServerConfig()
	perDie := (cores + cfg.ComputeDies - 1) / cfg.ComputeDies
	cfg.ClustersPerDie = (perDie + cfg.CoresPerCluster - 1) / cfg.CoresPerCluster
	if cfg.ClustersPerDie < 1 {
		cfg.ClustersPerDie = 1
	}
	return cfg
}

// packages returns the effective socket count.
func (c ServerConfig) packages() int {
	if c.Packages < 1 {
		return 1
	}
	return c.Packages
}

// TotalCores returns the system's core count across all packages.
func (c ServerConfig) TotalCores() int {
	return c.packages() * c.ComputeDies * c.ClustersPerDie * c.CoresPerCluster
}

// CoreKind selects what sits in the core sockets.
type CoreKind int

// Core socket populations.
const (
	// CoherentCores populates sockets with coherence.CoreAgent (the
	// Table 5 configuration).
	CoherentCores CoreKind = iota
	// MemoryCores populates sockets with traffic.Requester cores doing
	// direct DDR access — the "disable all L1/L2 cache" configuration of
	// Figures 10 and 11. Requester configs are installed afterwards via
	// ConfigureMemoryCore.
	MemoryCores
)

// ServerCPU is the built package.
type ServerCPU struct {
	Net *noc.Network

	// Cores is populated for CoherentCores.
	Cores []*coherence.CoreAgent
	// MemCores is populated for MemoryCores.
	MemCores []*traffic.Requester

	Dirs   []*coherence.Directory
	Slices []*coherence.DataSlice
	DDRs   []*mem.Controller
	IO     []*mem.Controller // PCIe/Ethernet endpoints on the IO dies
	Homes  coherence.HomeMap

	// DieOfCore[i] is the compute die of core i.
	DieOfCore []int
}

// coreSocket is where a core will be attached.
type coreSocket struct {
	die, cluster, index int
	st                  *noc.CrossStation
}

// BuildServerCPU constructs the package. For MemoryCores, memCoreCfg is
// called per core index to produce each requester's configuration (its
// TargetOf typically spreads over s.DDRs).
func BuildServerCPU(cfg ServerConfig, kind CoreKind, memCoreCfg func(core int, s *ServerCPU) traffic.RequesterConfig) *ServerCPU {
	if cfg.ComputeDies < 1 || cfg.IODies < 0 {
		panic("soc: need at least one compute die")
	}
	s := &ServerCPU{Net: noc.NewNetwork("server-cpu")}
	net := s.Net

	// computeRings[p] / ioRings[p] are per-package die rings.
	computeRings := make([][]*noc.Ring, cfg.packages())
	ioRings := make([][]*noc.Ring, cfg.packages())
	var sockets []coreSocket

	// --- compute dies: full rings. Stations sit at consecutive
	// positions (the high-speed wire fabric spans a whole station pitch
	// per cycle); slices and DDR channels are interleaved among the
	// cluster groups so a cluster's data slice is physically nearby.
	coreStationsPerCluster := (cfg.CoresPerCluster + 1) / 2
	slicesPerDie := min(cfg.L3SlicesPerDie, cfg.ClustersPerDie)
	ddrPerDie := min(cfg.DDRPerDie, cfg.ClustersPerDie)
	deviceStations := cfg.ClustersPerDie*(coreStationsPerCluster+1) +
		slicesPerDie + ddrPerDie
	positionsPerDie := deviceStations + 4 // + bridge stations at the end
	for pkg := 0; pkg < cfg.packages(); pkg++ {
		for pdie := 0; pdie < cfg.ComputeDies; pdie++ {
			die := pkg*cfg.ComputeDies + pdie
			ring := net.AddRing(positionsPerDie, true)
			computeRings[pkg] = append(computeRings[pkg], ring)
			pos := 0
			nextStation := func() *noc.CrossStation {
				st := ring.AddStation(pos)
				pos++
				return st
			}
			clustersPerSlice := (cfg.ClustersPerDie + slicesPerDie - 1) / slicesPerDie
			clustersPerDDR := (cfg.ClustersPerDie + ddrPerDie - 1) / ddrPerDie
			for cl := 0; cl < cfg.ClustersPerDie; cl++ {
				var st *noc.CrossStation
				for c := 0; c < cfg.CoresPerCluster; c++ {
					if c%2 == 0 {
						st = nextStation()
					}
					sockets = append(sockets, coreSocket{die: die, cluster: cl, index: c, st: st})
				}
				dirSt := nextStation()
				dir := coherence.NewDirectory(net, fmt.Sprintf("d%d.dir%d", die, cl), cfg.TagLookup, dirSt)
				s.Dirs = append(s.Dirs, dir)
				if cl%clustersPerSlice == 0 && len(s.Slices) < (die+1)*slicesPerDie {
					sl := coherence.NewDataSlice(net, fmt.Sprintf("d%d.l3d%d", die, len(s.Slices)%slicesPerDie), cfg.SliceAccess, nextStation())
					s.Slices = append(s.Slices, sl)
				}
				if cl%clustersPerDDR == 0 && len(s.DDRs) < (die+1)*ddrPerDie {
					ddr := mem.New(net, fmt.Sprintf("d%d.ddr%d", die, len(s.DDRs)%ddrPerDie), cfg.DDR, nextStation())
					s.DDRs = append(s.DDRs, ddr)
				}
			}
		}
	}

	// --- IO dies: half rings with IO endpoints ---
	ioCfg := mem.Config{AccessCycles: 200, BytesPerCycle: 16, QueueDepth: 32}
	for pkg := 0; pkg < cfg.packages(); pkg++ {
		for pdie := 0; pdie < cfg.IODies; pdie++ {
			die := pkg*cfg.IODies + pdie
			ring := net.AddRing(8+2*cfg.ComputeDies+2*cfg.packages(), false)
			ioRings[pkg] = append(ioRings[pkg], ring)
			pcie := mem.New(net, fmt.Sprintf("io%d.pcie", die), ioCfg, ring.AddStation(0))
			eth := mem.New(net, fmt.Sprintf("io%d.eth", die), ioCfg, ring.AddStation(2))
			s.IO = append(s.IO, pcie, eth)
		}
	}

	// --- bridges: compute dies pairwise, and each compute die to each
	// IO die (Figure 8(A)). Bridge stations claim odd positions, which
	// the even-position device stations never use.
	nextBridgePos := make(map[*noc.Ring]int)
	claim := func(r *noc.Ring) *noc.CrossStation {
		pos, ok := nextBridgePos[r]
		if !ok {
			pos = r.Positions() - 1
		}
		st := r.Station(pos)
		if st == nil {
			st = r.AddStation(pos)
		}
		nextBridgePos[r] = pos - 1
		return st
	}
	for pkg := 0; pkg < cfg.packages(); pkg++ {
		crs, irs := computeRings[pkg], ioRings[pkg]
		for i := 0; i < len(crs); i++ {
			for j := i + 1; j < len(crs); j++ {
				noc.NewRBRGL2(net, fmt.Sprintf("p%d.ccd%d-ccd%d", pkg, i, j), cfg.Bridge,
					claim(crs[i]), claim(crs[j]))
			}
		}
		for i, cr := range crs {
			for j, ir := range irs {
				noc.NewRBRGL2(net, fmt.Sprintf("p%d.ccd%d-iod%d", pkg, i, j), cfg.Bridge,
					claim(cr), claim(ir))
			}
		}
	}
	// --- Protocol Adapter links: IO die 0 of each package pair, over
	// SerDes (longer latency than the in-package D2D links) ---
	if cfg.packages() > 1 && cfg.IODies == 0 {
		panic("soc: multi-package systems need IO dies for the PA links")
	}
	pa := cfg.Bridge
	pa.LinkLatency = 60 // SerDes crossing at the NoC clock
	pa.TxDepth, pa.RxDepth = 32, 32
	for p := 0; p < cfg.packages(); p++ {
		for q := p + 1; q < cfg.packages(); q++ {
			noc.NewRBRGL2(net, fmt.Sprintf("pa%d-%d", p, q), pa,
				claim(ioRings[p][0]), claim(ioRings[q][0]))
		}
	}

	// --- wire directories to their nearest slice and DDR channel ---
	clustersPerSlice := (cfg.ClustersPerDie + slicesPerDie - 1) / slicesPerDie
	clustersPerDDR := (cfg.ClustersPerDie + ddrPerDie - 1) / ddrPerDie
	for i, dir := range s.Dirs {
		die := i / cfg.ClustersPerDie
		cl := i % cfg.ClustersPerDie
		si := die*slicesPerDie + min(cl/clustersPerSlice, slicesPerDie-1)
		di := die*ddrPerDie + min(cl/clustersPerDDR, ddrPerDie-1)
		dir.WireTo(s.Slices[si].Node(), s.DDRs[di].Node())
	}

	// --- populate core sockets ---
	s.Homes = coherence.NewHomeMap(len(s.Dirs))
	homeOf := func(addr uint64) noc.NodeID {
		return s.Dirs[s.Homes.HomeOf(addr)].Node()
	}
	rng := sim.NewRNG(0x5eC0 ^ cfg.Seed)
	for i, sk := range sockets {
		name := fmt.Sprintf("d%d.c%d.core%d", sk.die, sk.cluster, sk.index)
		switch kind {
		case CoherentCores:
			core := coherence.NewCoreAgent(net, name, cfg.SnoopCycles, cfg.Outstanding, homeOf, sk.st)
			s.Cores = append(s.Cores, core)
		case MemoryCores:
			if memCoreCfg == nil {
				panic("soc: MemoryCores needs a memCoreCfg")
			}
			rc := memCoreCfg(i, s)
			r := traffic.NewRequester(net, name, rc, rng.Derive(uint64(i)), sk.st)
			s.MemCores = append(s.MemCores, r)
		}
		s.DieOfCore = append(s.DieOfCore, sk.die)
	}

	net.MustFinalize()
	return s
}

// AllDDRNodes returns every DDR controller node in the package.
func (s *ServerCPU) AllDDRNodes() []noc.NodeID {
	out := make([]noc.NodeID, len(s.DDRs))
	for i, d := range s.DDRs {
		out[i] = d.Node()
	}
	return out
}

// Run advances the whole package n cycles.
func (s *ServerCPU) Run(n int) {
	s.Net.Run(n)
}
