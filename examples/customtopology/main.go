// Custom topology example: compose your own heterogeneous package from
// the library's building blocks — here a compute die (full ring with
// requester cores), a memory die (half ring with HBM stacks), and an IO
// die, chained with RBRG-L2 bridges. This is the "Lego-like SoC" workflow
// of Section 2.1: the same components, rearranged for a new product.
package main

import (
	"fmt"

	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

func main() {
	net := noc.NewNetwork("custom-soc")

	// Die 0: compute — a full ring with four requester cores.
	compute := net.AddRing(12, true)
	// Die 1: memory — a half ring with two HBM stacks.
	memory := net.AddRing(8, false)
	// Die 2: IO — a half ring with a PCIe-like endpoint.
	io := net.AddRing(6, false)

	hbm0 := mem.New(net, "hbm0", mem.HBMStack(), memory.AddStation(0))
	hbm1 := mem.New(net, "hbm1", mem.HBMStack(), memory.AddStation(2))
	pcie := mem.New(net, "pcie", mem.Config{AccessCycles: 300, BytesPerCycle: 8, QueueDepth: 16},
		io.AddStation(0))

	// Bridges: compute <-> memory and compute <-> IO.
	cfg := noc.DefaultRBRGL2Config()
	noc.NewRBRGL2(net, "compute-memory", cfg, compute.AddStation(10), memory.AddStation(6))
	noc.NewRBRGL2(net, "compute-io", cfg, compute.AddStation(11), io.AddStation(4))

	// Cores stream reads from the interleaved HBM stacks, with an
	// occasional PCIe access mixed in via a second requester.
	hbmNodes := []noc.NodeID{hbm0.Node(), hbm1.Node()}
	rng := sim.NewRNG(42)
	var cores []*traffic.Requester
	for i := 0; i < 4; i++ {
		rc := traffic.RequesterConfig{
			Outstanding: 16, Rate: 1, ReadFraction: 0.8,
			Stream:   traffic.NewSeqStream(uint64(i)<<20+uint64(i)*64, 64, 1<<20),
			TargetOf: traffic.InterleavedTargets(hbmNodes),
		}
		core := traffic.NewRequester(net, fmt.Sprintf("core%d", i), rc, rng.Derive(uint64(i)),
			compute.AddStation(i*2))
		cores = append(cores, core)
	}
	ioReq := traffic.NewRequester(net, "dma", traffic.RequesterConfig{
		Outstanding: 4, Rate: 0.05, ReadFraction: 1,
		Stream:   traffic.NewSeqStream(1<<30, 64, 1<<16),
		TargetOf: traffic.FixedTarget(pcie.Node()),
	}, rng.Derive(99), compute.AddStation(9))

	net.MustFinalize()

	net.Run(20000)

	fmt.Println("custom 3-die package after 20k cycles:")
	for _, c := range cores {
		fmt.Printf("  %s: %d transactions, mean latency %.1f cycles\n",
			c.Name(), c.Completed, c.Latency.Mean())
	}
	fmt.Printf("  dma: %d PCIe reads, mean latency %.1f cycles\n", ioReq.Completed, ioReq.Latency.Mean())
	fmt.Printf("  HBM served %d + %d lines; network deflections %d\n",
		hbm0.Reads+hbm0.Writes, hbm1.Reads+hbm1.Writes, net.Deflections)
}
