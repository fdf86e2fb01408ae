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

// buildCrossFlood places two flooding endpoints on each ring, each
// flooding a partner across the dies — the all-cross traffic of the
// Figure 9 deadlock rig.
func buildCrossFlood(net *noc.Network, r0, r1 *noc.Ring) {
	a0 := newFloodNode(net, r0.AddStation(0), 0)
	a1 := newFloodNode(net, r0.AddStation(2), 0)
	b0 := newFloodNode(net, r1.AddStation(2), 0)
	b1 := newFloodNode(net, r1.AddStation(4), 0)
	a0.dst, a1.dst = b0.node, b1.node
	b0.dst, b1.dst = a0.node, a1.node
}
