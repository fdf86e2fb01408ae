package baseline

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// MultiRing adapts the paper's bufferless multi-ring NoC to the Fabric
// interface so the baselines and this work run identical traffic.
type MultiRing struct {
	name    string
	net     *noc.Network
	ports   []*mrPort
	bridges []*noc.RBRGL2
	stats   deliveryStats
}

// mrPort is one endpoint: it drains its eject queue the cycle something
// arrives (the attached device's transaction buffers absorb arrivals)
// and recycles the consumed flits into the network's free-list. Between
// arrivals it sleeps: an ejection is the only thing that wakes it.
type mrPort struct{ noc.Port }

// IdleUntil implements noc.IdleUntiler.
func (p *mrPort) IdleUntil(now sim.Cycle) sim.Cycle {
	if p.Iface.EjectLen() > 0 {
		return now
	}
	return noc.Never
}

func (p *mrPort) Tick(now sim.Cycle) {
	for f := p.Iface.Recv(); f != nil; f = p.Iface.Recv() {
		p.Net.ReleaseFlit(f)
	}
}

// NewMultiRing builds a single bufferless ring (full if full=true) with
// the given number of endpoints, two per cross station, one repeater
// position between stations — the monolithic-die shape.
func NewMultiRing(nodes int, full bool) *MultiRing {
	if nodes < 2 {
		panic("baseline: multiring needs at least 2 nodes")
	}
	m := &MultiRing{
		name: fmt.Sprintf("bufferless-multiring-%d", nodes),
		net:  noc.NewNetwork("multiring"),
	}
	stations := (nodes + 1) / 2
	ring := m.net.AddRing(stations*2, full)
	for i := 0; i < nodes; i++ {
		m.addPort(ring.AddStation((i / 2) * 2))
	}
	m.finish()
	return m
}

// NewMultiRingChiplets builds a multi-die package: one full ring per die,
// joined pairwise in a chain by RBRG-L2 bridges — the heterogeneous
// chiplet shape of Section 4.2.
func NewMultiRingChiplets(dies, nodesPerDie int) *MultiRing {
	if dies < 1 || nodesPerDie < 1 {
		panic("baseline: chiplet multiring needs positive geometry")
	}
	m := &MultiRing{
		name: fmt.Sprintf("bufferless-multiring-%dx%d", dies, nodesPerDie),
		net:  noc.NewNetwork("multiring-chiplets"),
	}
	stations := (nodesPerDie+1)/2 + 1 // +1 for the bridge station(s)
	var rings []*noc.Ring
	for d := 0; d < dies; d++ {
		ring := m.net.AddRing(stations*2, true)
		rings = append(rings, ring)
		for i := 0; i < nodesPerDie; i++ {
			m.addPort(ring.AddStation((i / 2) * 2))
		}
	}
	// Two parallel RBRG-L2 links per die pair, like the multi-link
	// die-to-die interfaces of real chiplet packages. Bridges sit at odd
	// positions, which the even-position port stations never use.
	// Each pair claims the high odd positions on its left ring and the
	// low odd positions on its right ring, so chains of dies never
	// collide.
	cfg := noc.DefaultRBRGL2Config()
	for d := 0; d+1 < dies; d++ {
		a := rings[d].AddStation(stations*2 - 1)
		b := rings[d+1].AddStation(1)
		m.bridges = append(m.bridges, noc.NewRBRGL2(m.net, fmt.Sprintf("l2-%d-%d.0", d, d+1), cfg, a, b))
		a2 := rings[d].AddStation(stations*2 - 3)
		b2 := rings[d+1].AddStation(3)
		m.bridges = append(m.bridges, noc.NewRBRGL2(m.net, fmt.Sprintf("l2-%d-%d.1", d, d+1), cfg, a2, b2))
	}
	m.finish()
	return m
}

// portDevice is what addPort registers for a port. Tests swap in a wrapper
// that hides IdleUntil, to get the every-cycle port as their reference.
var portDevice = func(p *mrPort) noc.Device { return p }

func (m *MultiRing) addPort(st *noc.CrossStation) {
	p := &mrPort{}
	p.Port = m.net.Plug(portDevice(p), fmt.Sprintf("port%d", len(m.ports)), st)
	m.ports = append(m.ports, p)
}

func (m *MultiRing) finish() {
	m.net.MustFinalize()
	m.net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		m.stats.packets++
		m.stats.bytes += uint64(f.PayloadBytes)
		if done, _ := f.Msg.(DeliverFunc); done != nil {
			done(cycles)
		}
	})
}

// Network exposes the wrapped NoC for statistics.
func (m *MultiRing) Network() *noc.Network { return m.net }

// Name implements Fabric.
func (m *MultiRing) Name() string { return m.name }

// Nodes implements Fabric.
func (m *MultiRing) Nodes() int { return len(m.ports) }

// Delivered implements Fabric.
func (m *MultiRing) Delivered() (uint64, uint64) { return m.stats.packets, m.stats.bytes }

// NocCounters returns (hops, router traversals, link transfers) for the
// energy model: the bufferless design pays wire hops and die-to-die
// transfers but no buffered-router traversals.
func (m *MultiRing) NocCounters() (uint64, uint64, uint64) {
	var link uint64
	for _, b := range m.bridges {
		link += b.Transferred()
	}
	return m.net.TotalHops, 0, link
}

// TrySend implements Fabric.
func (m *MultiRing) TrySend(src, dst, payloadBytes int, done DeliverFunc) bool {
	if src == dst {
		panic("baseline: multiring send to self")
	}
	sp, dp := m.ports[src], m.ports[dst]
	// The flit is minted before the capacity test, and a refused one is
	// recycled rather than not minted: bridge load-balancing keys on the
	// per-source sequence number in the flit ID, so every attempt must
	// consume one. The callback rides in the flit, set before Send: however
	// the flit ends — delivered, refused here, dropped as unroutable inside
	// Send, killed with a bridge — ReleaseFlit clears it.
	f := m.net.NewFlit(sp.Node(), dp.Node(), noc.KindData, payloadBytes)
	f.Msg = done
	if !sp.Iface.Send(f) {
		m.net.RecycleRefused(f)
		return false
	}
	return true
}

// Tick implements Fabric.
func (m *MultiRing) Tick() {
	m.net.Tick(sim.Cycle(m.net.Ticks()))
}

// Bridges exposes the inter-die bridges for diagnostics.
func (m *MultiRing) Bridges() []*noc.RBRGL2 { return m.bridges }
