// Package serving reproduces the open-loop MoE/transformer serving
// workload of the uPimulator host-orchestration model on the paper's
// chiplet fabric: one ring per die carrying a serving engine and a
// local memory, a hub ring joining the dies through RBRG-L2 bridges,
// and a host orchestrator streaming batches of open-loop requests
// through per-layer command DAGs. MoE experts map to distinct dies, so
// top-k expert routing turns into all-to-all dispatch/combine traffic
// across the inter-die bridges — the pattern the application-defined
// fabrics of the source paper are built to absorb.
package serving

import (
	"fmt"

	"chipletnoc/internal/config"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// diePositions is each die ring's station budget; hub positions scale
// with the die count.
const diePositions = 8

// System is one built serving run at one offered load.
type System struct {
	Spec    *config.ServingSpec
	Load    float64
	Net     *noc.Network
	Engines []*Engine
	Mems    []*mem.Controller
	Orch    *Orchestrator
}

// Build assembles the system for spec.Loads[point]. The spec must be
// defaulted (ApplyDefaults) and valid. Seeding derives every RNG stream
// from (spec.Seed, point), so a load point's behaviour is independent
// of which worker runs it and of its neighbours in the sweep.
func Build(spec *config.ServingSpec, point int) (*System, error) {
	if point < 0 || point >= len(spec.Loads) {
		return nil, fmt.Errorf("serving: load point %d outside the %d-point sweep", point, len(spec.Loads))
	}
	if spec.Dies < 1 || spec.Batch < 1 || spec.HighWatermark < 1 {
		return nil, fmt.Errorf("serving: spec not defaulted (dies=%d batch=%d high=%d)", spec.Dies, spec.Batch, spec.HighWatermark)
	}
	load := spec.Loads[point]
	sys := &System{Spec: spec, Load: load}
	net := noc.NewNetwork(fmt.Sprintf("%s.l%d", spec.Name, point))
	sys.Net = net
	rng := sim.NewRNG(spec.Seed ^ 0x5e55).Derive(uint64(point))

	// One ring per die: engine, memory and a bridge foot. Creation
	// order fixes device registration order (engine, memory per die,
	// then bridges) — the orchestrator must come last.
	hub := net.AddRing(max(4, 2*spec.Dies), true)
	for die := 0; die < spec.Dies; die++ {
		ring := net.AddRing(diePositions, true)
		sys.Engines = append(sys.Engines, newEngine(net, die, ring.AddStation(0)))
		sys.Mems = append(sys.Mems, mem.New(net, fmt.Sprintf("d%d.mem", die),
			mem.Config{AccessCycles: 40, BytesPerCycle: 64, QueueDepth: 32}, ring.AddStation(2)))
		noc.NewRBRGL2(net, fmt.Sprintf("pa.%d", die), noc.DefaultRBRGL2Config(), ring.AddStation(6), hub.AddStation(2*die))
	}
	memNodes := make([]noc.NodeID, spec.Dies)
	for i, m := range sys.Mems {
		memNodes[i] = m.Node()
	}
	for _, e := range sys.Engines {
		e.memNodes = memNodes
	}

	// The orchestrator registers last, so each cycle it ticks after every
	// engine and collects that cycle's completions.
	sys.Orch = newOrchestrator(spec, net, sys.Engines, load, rng)
	net.AddDevice(sys.Orch)

	if err := net.Finalize(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Run drives the configured window.
func (s *System) Run() { s.Net.Run(int(s.Spec.Cycles)) }
