package experiments

import (
	"fmt"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/phys"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/stats"
)

// AblationBufferless compares the bufferless multi-ring against a
// buffered ring of the same size: zero-load latency, saturation
// throughput, area and per-flit energy — the Section 3.4.2/3.4.3
// trade-off quantified.
type AblationBufferless struct {
	Nodes                        int
	BufferlessLat, BufferedLat   float64 // zero-load mean latency
	BufferlessThru, BufferedThru float64 // delivered pkts/node/cycle at heavy load
	BufferlessArea, BufferedArea float64 // mm^2
	BufferlessPJ, BufferedPJ     float64 // energy per delivered flit
}

// RunAblationBufferless measures both organisations.
func RunAblationBufferless(scale Scale) AblationBufferless {
	nodes := 16
	warm := uint64(scale.cycles(300, 1000))
	window := uint64(scale.cycles(1500, 6000))

	// Per organisation, the light-load, heavy-load and energy runs use
	// independent fabric instances — three jobs each.
	measureEnergy := func(factory func() baseline.Fabric) (pj float64) {
		f := factory()
		baseline.MeasureUniform(f, 0.3, 64, warm, window, 0xAB3)
		pkts, _ := f.Delivered()
		var counters struct{ hops, rtr, link uint64 }
		if nc, ok := f.(interface {
			NocCounters() (uint64, uint64, uint64)
		}); ok {
			counters.hops, counters.rtr, counters.link = nc.NocCounters()
		}
		e := phys.DefaultEnergyModel()
		bits := (64 + noc.HeaderBytes) * 8
		total := e.TotalPJ(phys.TrafficEnergy{
			FlitHops: counters.hops, FlitBits: bits, HopDistanceMm: 1.8,
			RouterTraversals: counters.rtr, BufferedEntries: counters.rtr,
			LinkBits: counters.link * uint64(bits),
		})
		if pkts > 0 {
			pj = total / float64(pkts)
		}
		return pj
	}

	res := AblationBufferless{Nodes: nodes}
	orgs := []struct {
		name          string
		factory       func() baseline.Fabric
		lat, thru, pj *float64
	}{
		{"bufferless", func() baseline.Fabric { return baseline.NewMultiRing(nodes, true) },
			&res.BufferlessLat, &res.BufferlessThru, &res.BufferlessPJ},
		{"buffered", func() baseline.Fabric { return baseline.NewBufferedRing(baseline.DefaultRingConfig(nodes)) },
			&res.BufferedLat, &res.BufferedThru, &res.BufferedPJ},
	}
	var jobs []Job
	for _, org := range orgs {
		org := org
		jobs = append(jobs,
			Job{Name: "ablation-bufferless/" + org.name + "/light", Run: func() {
				*org.lat = baseline.MeasureUniform(org.factory(), 0.01, 64, warm, window, 0xAB1).MeanLatency
			}},
			Job{Name: "ablation-bufferless/" + org.name + "/heavy", Run: func() {
				*org.thru = baseline.MeasureUniform(org.factory(), 0.5, 64, warm, window, 0xAB2).Throughput
			}},
			Job{Name: "ablation-bufferless/" + org.name + "/energy", Run: func() {
				*org.pj = measureEnergy(org.factory)
			}})
	}
	RunJobs("ablation-bufferless", jobs)

	m := phys.DefaultAreaModel()
	res.BufferlessArea = m.NoCArea(nodes, nodes*16, 0, 0)
	res.BufferedArea = m.BufferedNoCArea(nodes, nodes*32)
	return res
}

// Render prints the comparison.
func (r AblationBufferless) Render() string {
	t := stats.NewTable("metric", "bufferless", "buffered-ring")
	t.AddRow("zero-load latency (cyc)", fmt.Sprintf("%.1f", r.BufferlessLat), fmt.Sprintf("%.1f", r.BufferedLat))
	t.AddRow("heavy-load thru (pkt/node/cyc)", fmt.Sprintf("%.3f", r.BufferlessThru), fmt.Sprintf("%.3f", r.BufferedThru))
	t.AddRow("area (mm^2)", fmt.Sprintf("%.2f", r.BufferlessArea), fmt.Sprintf("%.2f", r.BufferedArea))
	t.AddRow("energy (pJ/flit)", fmt.Sprintf("%.0f", r.BufferlessPJ), fmt.Sprintf("%.0f", r.BufferedPJ))
	return fmt.Sprintf("Ablation: bufferless vs buffered ring (%d nodes)\n%s", r.Nodes, t.String())
}

// AblationHalfFull compares half-ring vs full-ring capacity (Section
// 4.1.3: "the full ring can provide ... higher capacity and throughput
// at the cost of hardware area").
type AblationHalfFull struct {
	Nodes                int
	HalfLat, FullLat     float64
	HalfThru, FullThru   float64
	HalfSlots, FullSlots int // hardware cost proxy: slot registers
}

// RunAblationHalfFull measures both ring flavours.
func RunAblationHalfFull(scale Scale) AblationHalfFull {
	nodes := 12
	warm := uint64(scale.cycles(300, 1000))
	window := uint64(scale.cycles(1500, 6000))
	res := AblationHalfFull{Nodes: nodes}
	cases := []struct {
		name  string
		full  bool
		heavy bool
		out   *float64
	}{
		{"half/light", false, false, &res.HalfLat},
		{"half/heavy", false, true, &res.HalfThru},
		{"full/light", true, false, &res.FullLat},
		{"full/heavy", true, true, &res.FullThru},
	}
	var jobs []Job
	for _, c := range cases {
		c := c
		jobs = append(jobs, Job{Name: "ablation-halffull/" + c.name, Run: func() {
			if c.heavy {
				*c.out = baseline.MeasureUniform(baseline.NewMultiRing(nodes, c.full), 0.4, 64, warm, window, 0xAB5).Throughput
			} else {
				*c.out = baseline.MeasureUniform(baseline.NewMultiRing(nodes, c.full), 0.01, 64, warm, window, 0xAB4).MeanLatency
			}
		}})
	}
	RunJobs("ablation-halffull", jobs)
	positions := ((nodes + 1) / 2) * 2
	res.HalfSlots = positions
	res.FullSlots = positions * 2
	return res
}

// Render prints the comparison.
func (r AblationHalfFull) Render() string {
	t := stats.NewTable("metric", "half-ring", "full-ring")
	t.AddRow("zero-load latency (cyc)", fmt.Sprintf("%.1f", r.HalfLat), fmt.Sprintf("%.1f", r.FullLat))
	t.AddRow("heavy-load thru (pkt/node/cyc)", fmt.Sprintf("%.3f", r.HalfThru), fmt.Sprintf("%.3f", r.FullThru))
	t.AddRow("slot registers", r.HalfSlots, r.FullSlots)
	return fmt.Sprintf("Ablation: half vs full ring (%d nodes)\n%s", r.Nodes, t.String())
}

// AblationWireFabric quantifies the distance-per-cycle decision of
// Section 3.3: the same physical loop built from high-dense wires needs
// 3x the pipeline positions of the high-speed fabric, which shows up
// directly as latency.
type AblationWireFabric struct {
	SpanUm                     float64
	DensePositions             int
	SpeedPositions             int
	DenseLat, SpeedLat         float64
	DenseAreaMm2, SpeedAreaMm2 float64 // effective floorplan loss
}

// RunAblationWireFabric builds one ring per fabric class, spanning the
// same physical loop, and measures unloaded latency.
func RunAblationWireFabric(scale Scale) AblationWireFabric {
	const loopUm = 43200 // a 10.8 mm x 10.8 mm die perimeter
	res := AblationWireFabric{SpanUm: loopUm}
	dense := phys.Spec(phys.HighDense)
	speed := phys.Spec(phys.HighSpeed)
	res.DensePositions = dense.PositionsForSpan(loopUm)
	res.SpeedPositions = speed.PositionsForSpan(loopUm)

	measure := func(positions int) float64 {
		net := noc.NewNetwork("wire")
		ring := net.AddRing(positions, true)
		// Four endpoints evenly spaced.
		step := positions / 4
		var ifaces []*noc.NodeInterface
		for i := 0; i < 4; i++ {
			node := net.NewNode(fmt.Sprintf("n%d", i))
			ifaces = append(ifaces, net.Attach(node, ring.AddStation(i*step)))
		}
		net.MustFinalize()
		var hist stats.Histogram
		net.RecordLatency(func(f *noc.Flit, cycles uint64) { hist.Add(float64(cycles)) })
		// One flit at a time between opposite endpoints, given two laps
		// to arrive.
		for i := 0; i < scale.cycles(20, 100); i++ {
			src, dst := ifaces[i%4], ifaces[(i+2)%4]
			src.Send(net.NewFlit(src.Node(), dst.Node(), noc.KindData, 64))
			net.Run(positions * 2)
			net.ReleaseFlit(dst.Recv())
		}
		return hist.Mean()
	}
	RunJobs("ablation-wirefabric", []Job{
		{Name: "ablation-wirefabric/high-dense", Run: func() { res.DenseLat = measure(res.DensePositions) }},
		{Name: "ablation-wirefabric/high-speed", Run: func() { res.SpeedLat = measure(res.SpeedPositions) }},
	})
	bits := (64 + noc.HeaderBytes) * 8
	res.DenseAreaMm2 = dense.EffectiveAreaMm2(loopUm, bits)
	res.SpeedAreaMm2 = speed.EffectiveAreaMm2(loopUm, bits)
	return res
}

// Render prints the comparison.
func (r AblationWireFabric) Render() string {
	t := stats.NewTable("metric", "high-dense (MxMy)", "high-speed (My)")
	t.AddRow("positions for loop", r.DensePositions, r.SpeedPositions)
	t.AddRow("mean latency (cyc)", fmt.Sprintf("%.1f", r.DenseLat), fmt.Sprintf("%.1f", r.SpeedLat))
	t.AddRow("effective area (mm^2)", fmt.Sprintf("%.2f", r.DenseAreaMm2), fmt.Sprintf("%.2f", r.SpeedAreaMm2))
	return fmt.Sprintf("Ablation: wire fabric (Table 4), %.1f mm loop\n%s", r.SpanUm/1000, t.String())
}

// AblationSwap reproduces the cross-ring deadlock and compares outcomes
// with and without the SWAP resolution.
type AblationSwap struct {
	WithSwapDelivered    uint64
	WithoutSwapDelivered uint64
	WithoutSwapStalled   bool
	DRMActivations       uint64
}

// RunAblationSwap builds the two-die all-cross-traffic rig of Figure 9.
func RunAblationSwap(scale Scale) AblationSwap {
	cycles := scale.cycles(30000, 120000)
	run := func(swap bool) (uint64, bool, uint64) {
		net := noc.NewNetwork("swap")
		cfg := noc.RBRGL2Config{
			InjectDepth: 4, EjectDepth: 4, TxDepth: 4, RxDepth: 4,
			ReserveDepth: 4, LinkLatency: 4, LinkWidth: 1,
			DeadlockThreshold: 32, EnableSwap: swap,
		}
		r0 := net.AddRing(6, false)
		r1 := net.AddRing(6, false)
		buildCrossFlood(net, r0, r1)
		br := noc.NewRBRGL2(net, "l2", cfg, r0.AddStation(4), r1.AddStation(0))
		net.MustFinalize()
		net.Run(cycles)
		before := net.DeliveredFlits
		net.Run(cycles / 3)
		stalled := net.DeliveredFlits == before
		return net.DeliveredFlits, stalled, br.SwapEntries()
	}
	var res AblationSwap
	RunJobs("ablation-swap", []Job{
		{Name: "ablation-swap/with", Run: func() {
			res.WithSwapDelivered, _, res.DRMActivations = run(true)
		}},
		{Name: "ablation-swap/without", Run: func() {
			res.WithoutSwapDelivered, res.WithoutSwapStalled, _ = run(false)
		}},
	})
	return res
}

// Render prints the outcome.
func (r AblationSwap) Render() string {
	stall := "kept flowing (unexpected)"
	if r.WithoutSwapStalled {
		stall = "deadlocked (no deliveries)"
	}
	return "Ablation: SWAP deadlock resolution (Figure 9 rig)\n" +
		fmt.Sprintf("with SWAP:    %d flits delivered, %d DRM activations\n", r.WithSwapDelivered, r.DRMActivations) +
		fmt.Sprintf("without SWAP: %d flits delivered, then %s\n", r.WithoutSwapDelivered, stall)
}

// AblationTags compares livelock and starvation behaviour with the
// I-tag/E-tag machinery on and off. Without E-tags, a flit that loses
// the eject race can keep losing it forever — the freed entry goes to
// whatever arrives at the drain moment — so deflection totals explode
// and some flits circulate indefinitely (the livelock of Section 4.1.2).
type AblationTags struct {
	OnDelivered, OffDelivered           uint64
	OnDeflections, OffDeflections       uint64
	OnMaxLiveDeflect, OffMaxLiveDeflect int // worst deflection count still circulating at the end
}

// RunAblationTags floods a hotspot and measures fairness with and
// without the tags.
func RunAblationTags(scale Scale) AblationTags {
	cycles := scale.cycles(4000, 20000)
	run := func(tags bool) (delivered, deflections uint64, maxLive int) {
		net := noc.NewNetwork("tags")
		net.ITagEnabled = tags
		net.ETagEnabled = tags
		// Full ring: the sink receives from both directions (up to 2
		// arrivals/cycle) but drains only 1, so its eject queue
		// overflows and arrivals must deflect.
		ring := net.AddRing(12, true)
		sink := newDrainNode(net, ring.AddStation(9), 1)
		for i := 0; i < 3; i++ {
			newFloodNode(net, ring.AddStation(i*3), sink.node)
		}
		net.MustFinalize()
		net.Run(cycles)
		for _, r := range net.Rings() {
			for _, f := range r.LiveFlits() {
				maxLive = max(maxLive, int(f.Deflections))
			}
		}
		return net.DeliveredFlits, net.Deflections, maxLive
	}
	var res AblationTags
	RunJobs("ablation-tags", []Job{
		{Name: "ablation-tags/on", Run: func() {
			res.OnDelivered, res.OnDeflections, res.OnMaxLiveDeflect = run(true)
		}},
		{Name: "ablation-tags/off", Run: func() {
			res.OffDelivered, res.OffDeflections, res.OffMaxLiveDeflect = run(false)
		}},
	})
	return res
}

// Render prints the comparison.
func (r AblationTags) Render() string {
	t := stats.NewTable("metric", "tags on", "tags off")
	t.AddRow("delivered flits", r.OnDelivered, r.OffDelivered)
	t.AddRow("total deflections", r.OnDeflections, r.OffDeflections)
	t.AddRow("worst live flit deflections", r.OnMaxLiveDeflect, r.OffMaxLiveDeflect)
	return "Ablation: I-tag/E-tag livelock & starvation control\n" + t.String() +
		"without E-tags a deflected flit can lose the eject race forever (livelock)\n"
}

// AblationThrottle drives the AI die far past its saturation point
// (where bufferless networks suffer congestion collapse) with and
// without the source-pacing congestion controller.
type AblationThrottle struct {
	PlainTBps     float64
	ThrottledTBps float64
	PlainDefl     float64 // deflections per delivered flit
	ThrottledDefl float64
}

// RunAblationThrottle measures both configurations at an overdriven
// operating point.
func RunAblationThrottle(scale Scale) AblationThrottle {
	run := func(throttle bool) (float64, float64) {
		cfg := soc.DefaultAIConfig()
		if scale == Quick {
			cfg.VRings, cfg.HRings = 6, 4
			cfg.CoresPerVRing, cfg.L2PerHRing = 2, 3
			cfg.HBMStacks, cfg.DMAEngines = 4, 4
		}
		// Overdrive: far more outstanding work than the fabric can hold.
		cfg.CoreOutstanding = 512
		cfg.CoreIssueWidth = 4
		cfg.BeforeFinalize = func(a *soc.AIProcessor) {
			if throttle {
				tc := noc.DefaultThrottleConfig()
				// Aggressive pacing for the overdriven operating point.
				tc.DeflectionsPerKCycle = 20
				tc.SkipNumerator, tc.SkipDenominator = 2, 3
				a.Net.SetThrottle(tc)
			}
		}
		a := soc.BuildAIProcessor(cfg)
		a.Run(scale.cycles(1500, 3000))
		before := a.Net.Snapshot()
		a.Run(scale.cycles(3000, 6000))
		d := a.Net.Snapshot().Since(before)
		tbps := soc.BandwidthTBps(d.DeliveredBytes, d.Cycles)
		defl := 0.0
		if d.DeliveredFlits > 0 {
			defl = float64(d.Deflections) / float64(d.DeliveredFlits)
		}
		return tbps, defl
	}
	var res AblationThrottle
	RunJobs("ablation-throttle", []Job{
		{Name: "ablation-throttle/plain", Run: func() {
			res.PlainTBps, res.PlainDefl = run(false)
		}},
		{Name: "ablation-throttle/throttled", Run: func() {
			res.ThrottledTBps, res.ThrottledDefl = run(true)
		}},
	})
	return res
}

// Render prints the comparison.
func (r AblationThrottle) Render() string {
	t := stats.NewTable("metric", "no throttle", "throttled")
	t.AddRow("goodput (TB/s)", fmt.Sprintf("%.1f", r.PlainTBps), fmt.Sprintf("%.1f", r.ThrottledTBps))
	t.AddRow("deflections / delivery", fmt.Sprintf("%.3f", r.PlainDefl), fmt.Sprintf("%.3f", r.ThrottledDefl))
	return "Ablation (extension): congestion-collapse source pacing, AI die overdriven\n" + t.String()
}
