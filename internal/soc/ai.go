package soc

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

// AIConfig sizes the AI-Processor die (Section 4.3): vertical rings carry
// AI cores, horizontal rings carry the memory system (interleaved L2
// slices and HBM stacks), and an RBRG-L1 sits at every intersection so
// any request changes rings at most once (X-Y/Y-X routing).
type AIConfig struct {
	// VRings x HRings is the mesh-of-rings geometry.
	VRings, HRings int
	// CoresPerVRing AI cores sit on each vertical ring.
	CoresPerVRing int
	// L2PerHRing interleaved L2 slices sit on each horizontal ring.
	L2PerHRing int
	// HBMStacks are spread round-robin over the horizontal rings
	// (6 x 500 GB/s in the paper).
	HBMStacks int
	// DMAEngines move data between L2 and HBM (the system-DMA flow of
	// Table 7).
	DMAEngines int

	// ReadFraction is each AI core's read share of its L2 traffic (the
	// R:W ratio knob of Table 7).
	ReadFraction float64
	// CoreOutstanding and CoreRate shape the AI cores' request streams;
	// CoreIssueWidth is requests started per cycle (the AI core's
	// line-wide load/store pipes).
	CoreOutstanding int
	CoreRate        float64
	CoreIssueWidth  int
	// DMARate shapes the DMA engines' request streams.
	DMAOutstanding int
	DMARate        float64

	// LineBytes is the AI die's L2 line (NoC transaction granule).
	LineBytes int

	// IODie attaches the half-ring IO die of Section 4.3 ("the AI
	// Compute Die can connect to I/O Dies through the RBRG-L2 nodes")
	// with a PCIe-class host link used by host DMA traffic.
	IODie bool

	// Retry arms CHI-level timeout/retry on every requester (AI cores,
	// DMA engines, host DMA) so fault-injection runs recover dropped
	// transactions. The zero value disables it and keeps fault-free runs
	// bit-identical to earlier builds.
	Retry chi.RetryConfig

	// L2 and HBM calibrate the slice SRAM and HBM stacks.
	L2, HBM mem.Config
	// Bridge calibrates the RBRG-L1 intersections.
	Bridge noc.RBRGL1Config

	// BeforeFinalize, when set, runs after all standard devices are
	// attached but before the topology freezes — the hook experiments
	// use to add trace replayers or probes at the built stations.
	BeforeFinalize func(a *AIProcessor)

	// Seed perturbs every RNG stream in the build; zero keeps the
	// historical streams (the golden digests), other values give
	// statistically independent replicas of the same system.
	Seed uint64
}

// DefaultAIConfig returns the paper-scale AI die: 32 AI cores on 16
// vertical rings, 40 interleaved L2 slices on 10 horizontal rings, 6 HBM
// stacks and 8 system-DMA engines. This calibration reproduces the
// Table 7 envelope (10-16 TB/s across read:write ratios, balanced
// read/write columns at 1:1).
func DefaultAIConfig() AIConfig {
	bridge := noc.DefaultRBRGL1Config()
	bridge.InjectDepth, bridge.EjectDepth, bridge.ForwardPerCycle = 32, 32, 8
	return AIConfig{
		VRings: 16, HRings: 10,
		CoresPerVRing: 2, L2PerHRing: 4,
		HBMStacks: 6, DMAEngines: 8,
		ReadFraction:    0.5,
		CoreOutstanding: 192, CoreRate: 1, CoreIssueWidth: 2,
		DMAOutstanding: 48, DMARate: 1,
		LineBytes: 512,
		IODie:     true,
		L2:        mem.Config{AccessCycles: 6, BytesPerCycle: 512, QueueDepth: 64},
		HBM:       mem.HBMStack(),
		Bridge:    bridge,
	}
}

// QuickAIConfig is the Quick-scale AI die: 4 vertical and 2 horizontal
// rings, 8 AI cores, 8 L2 slices, 2 HBM stacks and 2 DMA engines. It is
// the golden-digest configuration and the -quick ai-processor.
func QuickAIConfig() AIConfig {
	cfg := DefaultAIConfig()
	cfg.VRings, cfg.HRings, cfg.CoresPerVRing, cfg.L2PerHRing, cfg.HBMStacks, cfg.DMAEngines = 4, 2, 2, 4, 2, 2
	return cfg
}

// AIProcessor is the built AI die (plus its IO die).
type AIProcessor struct {
	Net *noc.Network

	Cores   []*traffic.Requester
	L2s     []*mem.Controller
	HBMs    []*mem.Controller
	DMAs    []*traffic.Requester
	Bridges []*noc.RBRGL1
	// Host is the PCIe-class endpoint on the IO die (nil without IODie);
	// HostDMA moves data between the host link and the L2 slices.
	Host    *mem.Controller
	HostDMA *traffic.Requester
}

// BuildAIProcessor constructs the AI die.
func BuildAIProcessor(cfg AIConfig) *AIProcessor {
	if cfg.VRings < 1 || cfg.HRings < 1 {
		panic("soc: AI die needs at least one ring each way")
	}
	a := &AIProcessor{Net: noc.NewNetwork("ai-processor")}
	net := a.Net

	// Vertical rings: one station per core (an AI core needs the full
	// station injection bandwidth) + one bridge station per horizontal
	// ring.
	coreStations := cfg.CoresPerVRing
	vPositions := (coreStations + cfg.HRings) * 2
	vRings := make([]*noc.Ring, cfg.VRings)
	vCoreSts := make([][]*noc.CrossStation, cfg.VRings)
	for v := range vRings {
		vRings[v] = net.AddRing(vPositions, true)
		for i := 0; i < coreStations; i++ {
			vCoreSts[v] = append(vCoreSts[v], vRings[v].AddStation(i*2))
		}
	}
	// Horizontal rings: L2 slices + HBM + DMA stations + one bridge
	// station per vertical ring.
	hbmPerHRing := (cfg.HBMStacks + cfg.HRings - 1) / cfg.HRings
	dmaPerHRing := (cfg.DMAEngines + cfg.HRings - 1) / cfg.HRings
	hDeviceStations := cfg.L2PerHRing + hbmPerHRing + dmaPerHRing
	hPositions := (hDeviceStations + cfg.VRings) * 2
	hRings := make([]*noc.Ring, cfg.HRings)
	for h := range hRings {
		hRings[h] = net.AddRing(hPositions, true)
	}

	// RBRG-L1 mesh: one bridge per (v, h) intersection, at dedicated
	// stations past the device stations.
	for v := 0; v < cfg.VRings; v++ {
		for h := 0; h < cfg.HRings; h++ {
			vSt := vRings[v].AddStation((coreStations + h) * 2)
			hSt := hRings[h].AddStation((hDeviceStations + v) * 2)
			a.Bridges = append(a.Bridges, noc.NewRBRGL1(net, fmt.Sprintf("rbrg.%d.%d", v, h), cfg.Bridge, vSt, hSt))
		}
	}

	// L2 slices on horizontal rings, one per station.
	for h := 0; h < cfg.HRings; h++ {
		for i := 0; i < cfg.L2PerHRing; i++ {
			st := hRings[h].AddStation(i * 2)
			l2 := mem.New(net, fmt.Sprintf("l2.%d.%d", h, i), cfg.L2, st)
			a.L2s = append(a.L2s, l2)
		}
	}
	// HBM stacks round-robin over horizontal rings.
	hbmBase := cfg.L2PerHRing
	for i := 0; i < cfg.HBMStacks; i++ {
		h := i % cfg.HRings
		st := hRings[h].AddStation((hbmBase + i/cfg.HRings) * 2)
		hbm := mem.New(net, fmt.Sprintf("hbm.%d", i), cfg.HBM, st)
		a.HBMs = append(a.HBMs, hbm)
	}

	l2Nodes := make([]noc.NodeID, len(a.L2s))
	for i, l2 := range a.L2s {
		l2Nodes[i] = l2.Node()
	}
	hbmNodes := make([]noc.NodeID, len(a.HBMs))
	for i, h := range a.HBMs {
		hbmNodes[i] = h.Node()
	}

	// AI cores on the vertical rings: interleaved L2 targets, sequential
	// tensor streams offset per core.
	rng := sim.NewRNG(0xA1 ^ cfg.Seed)
	for v := 0; v < cfg.VRings; v++ {
		for c := 0; c < cfg.CoresPerVRing; c++ {
			idx := v*cfg.CoresPerVRing + c
			// Offset each core's stream so the interleaved sweeps start
			// on different L2 slices: lockstep sweeps would turn the
			// uniform interleave into a moving hotspot.
			line := uint64(cfg.LineBytes)
			base := uint64(idx)<<28 + uint64(idx)*line
			// The transaction table is shared silicon, but CHI's read and
			// write machinery are independent; partition the table by the
			// workload's mix, weighting writes double because the CHI
			// write flow (request, grant, data, completion) holds a slot
			// for two round trips.
			rf := cfg.ReadFraction
			wWeight := 2 * (1 - rf)
			den := rf + wWeight
			readBudget := int(float64(cfg.CoreOutstanding)*rf/den + 0.5)
			writeBudget := cfg.CoreOutstanding - readBudget
			if readBudget < 1 {
				readBudget = 1
			}
			if writeBudget < 1 {
				writeBudget = 1
			}
			rc := traffic.RequesterConfig{
				Outstanding:      readBudget,
				WriteOutstanding: writeBudget,
				Rate:             cfg.CoreRate,
				ReadFraction:     cfg.ReadFraction,
				Stream:           traffic.NewSeqStream(base, line, 1<<24),
				TargetOf:         traffic.InterleavedTargetsBy(l2Nodes, cfg.LineBytes),
				IssuePerCycle:    cfg.CoreIssueWidth,
				LineBytes:        cfg.LineBytes,
				Retry:            cfg.Retry,
			}
			core := traffic.NewRequester(net, fmt.Sprintf("ai.%d.%d", v, c),
				rc, rng.Derive(uint64(idx)), vCoreSts[v][c])
			a.Cores = append(a.Cores, core)
		}
	}

	// DMA engines on the horizontal rings: read HBM, write L2.
	dmaBase := hbmBase + hbmPerHRing
	for i := 0; i < cfg.DMAEngines; i++ {
		h := i % cfg.HRings
		st := hRings[h].AddStation((dmaBase + i/cfg.HRings) * 2)
		line := uint64(cfg.LineBytes)
		base := uint64(0x100+i)<<28 + uint64(i)*5*line
		rc := traffic.RequesterConfig{
			Outstanding:   cfg.DMAOutstanding,
			Rate:          cfg.DMARate,
			ReadFraction:  0.5,
			Stream:        traffic.NewSeqStream(base, line, 1<<24),
			TargetOf:      traffic.InterleavedTargetsBy(hbmNodes, cfg.LineBytes),
			WriteTargetOf: traffic.InterleavedTargetsBy(l2Nodes, cfg.LineBytes),
			LineBytes:     cfg.LineBytes,
			Retry:         cfg.Retry,
		}
		dma := traffic.NewRequester(net, fmt.Sprintf("dma.%d", i),
			rc, rng.Derive(uint64(0x1000+i)), st)
		a.DMAs = append(a.DMAs, dma)
	}

	// IO die: a half ring carrying the host interface, reached over an
	// RBRG-L2 from the first horizontal ring.
	if cfg.IODie {
		ioRing := net.AddRing(8, false)
		a.Host = mem.New(net, "io.pcie",
			mem.Config{AccessCycles: 300, BytesPerCycle: 32, QueueDepth: 32}, ioRing.AddStation(0))
		noc.NewRBRGL2(net, "ai-io", noc.DefaultRBRGL2Config(),
			hRings[0].AddStation(hPositions-1), ioRing.AddStation(6))
		// Host DMA: reads from the host link, writes into the L2 slices
		// (model loading / input staging).
		rc := traffic.RequesterConfig{
			Outstanding: 8, Rate: 0.2, ReadFraction: 0.5,
			LineBytes:     cfg.LineBytes,
			Stream:        traffic.NewSeqStream(uint64(0x7F)<<32, uint64(cfg.LineBytes), 1<<24),
			TargetOf:      traffic.FixedTarget(a.Host.Node()),
			WriteTargetOf: traffic.InterleavedTargetsBy(l2Nodes, cfg.LineBytes),
			Retry:         cfg.Retry,
		}
		a.HostDMA = traffic.NewRequester(net, "io.hostdma", rc, rng.Derive(0x7F), ioRing.AddStation(2))
	}

	if cfg.BeforeFinalize != nil {
		cfg.BeforeFinalize(a)
	}
	net.MustFinalize()
	return a
}

// L2Nodes returns the interleaved L2 slices' NoC addresses.
func (a *AIProcessor) L2Nodes() []noc.NodeID {
	out := make([]noc.NodeID, len(a.L2s))
	for i, l2 := range a.L2s {
		out[i] = l2.Node()
	}
	return out
}

// Run advances the AI processor n cycles.
func (a *AIProcessor) Run(n int) {
	a.Net.Run(n)
}

// BandwidthTBps converts payload bytes over cycles into TB/s at the
// 3 GHz NoC clock.
func BandwidthTBps(bytes uint64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	bytesPerCycle := float64(bytes) / float64(cycles)
	return bytesPerCycle * 3e9 / 1e12
}
