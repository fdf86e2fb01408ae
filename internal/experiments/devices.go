package experiments

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// flood fills iface's inject queue with cache-line flits towards dst. A
// flit is minted for the attempt that finds the queue full as well —
// bridge load-balancing keys on the per-source sequence number, so the
// refused attempt must keep consuming one — and handed straight back.
func flood(net *noc.Network, iface *noc.NodeInterface, dst noc.NodeID) {
	for {
		f := net.NewFlit(iface.Node(), dst, noc.KindData, 64)
		if !iface.Send(f) {
			net.RecycleRefused(f)
			return
		}
	}
}

// floodNode saturates the network with raw data flits towards one
// destination, draining anything it receives.
type floodNode struct {
	name  string
	net   *noc.Network
	iface *noc.NodeInterface
	node  noc.NodeID
	dst   noc.NodeID
}

func newFloodNode(net *noc.Network, st *noc.CrossStation, dst noc.NodeID) *floodNode {
	// Names derive from the per-network node count, not a package
	// counter: device construction must stay race-free when experiment
	// jobs build their networks on parallel worker goroutines.
	f := &floodNode{name: fmt.Sprintf("flood%d", net.Nodes()), net: net, dst: dst}
	f.node = net.NewNode(f.name)
	f.iface = net.Attach(f.node, st)
	net.AddDevice(f)
	return f
}

func (f *floodNode) Name() string { return f.name }
func (f *floodNode) Tick(now sim.Cycle) {
	flood(f.net, f.iface, f.dst)
	for {
		r := f.iface.Recv()
		if r == nil {
			break
		}
		f.net.ReleaseFlit(r)
	}
}

// drainNode consumes arrivals at a bounded rate (a slow sink).
type drainNode struct {
	name     string
	net      *noc.Network
	iface    *noc.NodeInterface
	node     noc.NodeID
	perCycle int
}

func newDrainNode(net *noc.Network, st *noc.CrossStation, perCycle int) *drainNode {
	d := &drainNode{name: fmt.Sprintf("drain%d", net.Nodes()), net: net, perCycle: perCycle}
	d.node = net.NewNode(d.name)
	d.iface = net.Attach(d.node, st)
	net.AddDevice(d)
	return d
}

func (d *drainNode) Name() string { return d.name }
func (d *drainNode) Tick(now sim.Cycle) {
	for i := 0; i < d.perCycle; i++ {
		f := d.iface.Recv()
		if f == nil {
			return
		}
		d.net.ReleaseFlit(f)
	}
}

// crossNode both floods a cross-die partner and drains its own arrivals —
// the all-cross traffic of the Figure 9 deadlock rig.
type crossNode struct {
	name    string
	net     *noc.Network
	iface   *noc.NodeInterface
	node    noc.NodeID
	partner noc.NodeID
}

func newCrossNode(net *noc.Network, st *noc.CrossStation) *crossNode {
	c := &crossNode{name: fmt.Sprintf("cross%d", net.Nodes()), net: net}
	c.node = net.NewNode(c.name)
	c.iface = net.Attach(c.node, st)
	net.AddDevice(c)
	return c
}

func (c *crossNode) Name() string { return c.name }
func (c *crossNode) Tick(now sim.Cycle) {
	flood(c.net, c.iface, c.partner)
	for {
		r := c.iface.Recv()
		if r == nil {
			break
		}
		c.net.ReleaseFlit(r)
	}
}

// buildCrossFlood places two cross-flooding endpoints on each ring,
// paired across the dies.
func buildCrossFlood(net *noc.Network, r0, r1 *noc.Ring) []*crossNode {
	a0 := newCrossNode(net, r0.AddStation(0))
	a1 := newCrossNode(net, r0.AddStation(2))
	b0 := newCrossNode(net, r1.AddStation(2))
	b1 := newCrossNode(net, r1.AddStation(4))
	a0.partner, a1.partner = b0.node, b1.node
	b0.partner, b1.partner = a0.node, a1.node
	return []*crossNode{a0, a1, b0, b1}
}
