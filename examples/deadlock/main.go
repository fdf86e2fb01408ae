// Deadlock example: construct the Figure 9 scenario — two rings whose
// every flit wants to cross to the other ring — and watch it wedge
// completely without SWAP, then resolve with SWAP enabled.
package main

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// crosser floods the partner on the other ring and drains its arrivals.
type crosser struct {
	name    string
	net     *noc.Network
	iface   *noc.NodeInterface
	partner noc.NodeID
	got     int
}

func (c *crosser) Name() string { return c.name }
func (c *crosser) Tick(now sim.Cycle) {
	for c.iface.Send(c.net.NewFlit(c.iface.Node(), c.partner, noc.KindData, noc.LineBytes)) {
	}
	for c.iface.Recv() != nil {
		c.got++
	}
}

func build(swap bool) (*noc.Network, *noc.RBRGL2) {
	net := noc.NewNetwork("figure9")
	cfg := noc.RBRGL2Config{
		InjectDepth: 4, EjectDepth: 4, TxDepth: 4, RxDepth: 4,
		ReserveDepth: 4, LinkLatency: 4, LinkWidth: 1,
		DeadlockThreshold: 32, EnableSwap: swap,
	}
	r0 := net.AddRing(6, false)
	r1 := net.AddRing(6, false)
	mk := func(r *noc.Ring, pos int, name string) *crosser {
		c := &crosser{name: name, net: net}
		node := net.NewNode(name)
		c.iface = net.Attach(node, r.AddStation(pos))
		net.AddDevice(c)
		return c
	}
	a0, a1 := mk(r0, 0, "a0"), mk(r0, 2, "a1")
	b0, b1 := mk(r1, 2, "b0"), mk(r1, 4, "b1")
	a0.partner, a1.partner = b0.iface.Node(), b1.iface.Node()
	b0.partner, b1.partner = a0.iface.Node(), a1.iface.Node()
	br := noc.NewRBRGL2(net, "bridge", cfg, r0.AddStation(4), r1.AddStation(0))
	net.MustFinalize()
	return net, br
}

func main() {
	for _, swap := range []bool{false, true} {
		net, br := build(swap)
		fmt.Printf("\n=== SWAP enabled: %v ===\n", swap)
		var last uint64
		for epoch := 1; epoch <= 5; epoch++ {
			net.Run(10000)
			delta := net.DeliveredFlits - last
			last = net.DeliveredFlits
			status := "flowing"
			if delta == 0 {
				status = "DEADLOCKED"
			}
			fmt.Printf("epoch %d: +%d flits delivered (%s), DRM entries so far: %d\n",
				epoch, delta, status, br.SwapEntries())
		}
	}
}
