// Quickstart: build a small bufferless full ring, attach two devices,
// send a handful of flits and read the statistics. This is the smallest
// possible use of the NoC library.
package main

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// echoDevice drains everything delivered to it and remembers the count.
// The embedded noc.Port is its place on the network: its name, its node
// and the interface it sends and receives through.
type echoDevice struct {
	noc.Port
	got int
}

func (e *echoDevice) Tick(now sim.Cycle) {
	for e.Iface.Recv() != nil {
		e.got++
	}
}

func main() {
	// A full (bidirectional) ring with 16 slot positions.
	net := noc.NewNetwork("quickstart")
	ring := net.AddRing(16, true)

	// Two devices on opposite sides of the ring. Plug gives each a node of
	// its name on a new station and registers it for ticking.
	alice, bob := &echoDevice{}, &echoDevice{}
	alice.Port = net.Plug(alice, "alice", ring.AddStation(0))
	bob.Port = net.Plug(bob, "bob", ring.AddStation(8))
	net.MustFinalize()

	// Record per-flit latency.
	net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		fmt.Printf("flit %d delivered: %d hops, %d cycles\n", f.ID, f.Hops, cycles)
	})

	// Alice sends ten cache lines to Bob, one a cycle: a harness that
	// interleaves sends with cycles drives Tick itself.
	for i := 0; i < 10; i++ {
		f := net.NewFlit(alice.Node(), bob.Node(), noc.KindData, noc.LineBytes)
		if !alice.Iface.Send(f) {
			fmt.Println("inject queue full; retrying next cycle")
		}
		net.Tick(sim.Cycle(net.Ticks()))
	}
	// Run until everything drains.
	net.RunUntil(func() bool { return net.InFlight() == 0 }, 100000)

	fmt.Printf("\nbob received %d flits\n", bob.got)
	fmt.Printf("network: injected=%d delivered=%d deflections=%d total hops=%d\n",
		net.InjectedFlits, net.DeliveredFlits, net.Deflections, net.TotalHops)
}
