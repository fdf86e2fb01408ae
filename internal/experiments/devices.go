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
	noc.Port
	dst noc.NodeID
}

func newFloodNode(net *noc.Network, st *noc.CrossStation, dst noc.NodeID) *floodNode {
	// Names derive from the per-network node count, not a package
	// counter: device construction must stay race-free when experiment
	// jobs build their networks on parallel worker goroutines.
	f := &floodNode{dst: dst}
	f.Port = net.Plug(f, fmt.Sprintf("flood%d", net.Nodes()), st)
	return f
}

// SnapState implements noc.StateSnapshotter: a flood node holds no state.
func (f *floodNode) SnapState(*noc.Snap) {}

func (f *floodNode) Tick(now sim.Cycle) {
	flood(f.Net, f.Iface, f.dst)
	for {
		r := f.Iface.Recv()
		if r == nil {
			break
		}
		f.Net.ReleaseFlit(r)
	}
}

// drainNode consumes arrivals at a bounded rate (a slow sink).
type drainNode struct {
	noc.Port
	perCycle int
}

func newDrainNode(net *noc.Network, st *noc.CrossStation, perCycle int) *drainNode {
	d := &drainNode{perCycle: perCycle}
	d.Port = net.Plug(d, fmt.Sprintf("drain%d", net.Nodes()), st)
	return d
}

// SnapState implements noc.StateSnapshotter: a drain holds no state.
func (d *drainNode) SnapState(*noc.Snap) {}

func (d *drainNode) Tick(now sim.Cycle) {
	for i := 0; i < d.perCycle; i++ {
		f := d.Iface.Recv()
		if f == nil {
			return
		}
		d.Net.ReleaseFlit(f)
	}
}

// pinger keeps one flit at a time in flight between opposite endpoints
// of a ring, each given period cycles to arrive: flit 0 is sent at build
// time, and flit i in the tick of cycle period·i − 1, once flit i − 1 is
// taken out of its eject queue.
type pinger struct {
	net         *noc.Network
	ifaces      []*noc.NodeInterface
	period      sim.Cycle
	flits, sent int // sent: flits sent, plus one once the last is received
}

func (p *pinger) Name() string { return "pinger" }

// send sends the next flit, if one is left.
func (p *pinger) send() {
	if src, dst := p.ifaces[p.sent%4], p.ifaces[(p.sent+2)%4]; p.sent < p.flits {
		src.Send(p.net.NewFlit(src.Node(), dst.Node(), noc.KindData, 64))
	}
	p.sent++
}

func (p *pinger) Tick(now sim.Cycle) {
	if p.IdleUntil(now) == now {
		p.net.ReleaseFlit(p.ifaces[(p.sent+1)%4].Recv())
		p.send()
	}
}

func (p *pinger) IdleUntil(now sim.Cycle) sim.Cycle {
	if p.sent > p.flits {
		return noc.Never
	}
	return max(now, p.period*sim.Cycle(p.sent)-1)
}

func (p *pinger) SnapState(s *noc.Snap) {
	s.Codec.Match(p.flits, "pings")
	if sim.Int(s.Codec, &p.sent); p.sent < 1 || p.sent > p.flits+1 {
		s.Codec.Fail("ping %d of %d", p.sent, p.flits)
	}
}
