// Tracing example: attach the structured event tracer to a congested
// ring, follow one flit's life (inject → deflect → eject), and summarise
// what the network did — the debugging workflow for bufferless NoCs,
// where a "lost" packet is always actually circulating somewhere.
package main

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// slowSink drains one flit per cycle, guaranteeing eject-queue pressure.
type slowSink struct{ noc.Port }

func (s *slowSink) Tick(now sim.Cycle) {
	s.Iface.Recv()
}

// pump floods the sink from one station.
type pump struct {
	noc.Port
	dst   noc.NodeID
	sent  int
	limit int
}

func (p *pump) Tick(now sim.Cycle) {
	for p.sent < p.limit &&
		p.Iface.Send(p.Net.NewFlit(p.Node(), p.dst, noc.KindData, noc.LineBytes)) {
		p.sent++
	}
	for p.Iface.Recv() != nil {
	}
}

func main() {
	net := noc.NewNetwork("traced")
	ring := net.AddRing(12, true)

	sink := &slowSink{}
	sink.Port = net.Plug(sink, "sink", ring.AddStation(6))

	// Pumps on both sides of the sink: arrivals come from both ring
	// directions (2/cycle) while the sink drains only 1/cycle, so the
	// eject queue overflows and flits deflect.
	var pumps []*pump
	for i, pos := range []int{2, 10, 4} {
		p := &pump{dst: sink.Node(), limit: 40}
		p.Port = net.Plug(p, fmt.Sprintf("pump%d", i), ring.AddStation(pos))
		pumps = append(pumps, p)
	}
	net.MustFinalize()

	tr := trace.New(4096)
	net.Tracer = tr

	net.RunUntil(func() bool { return net.InjectedFlits > 0 && net.InFlight() == 0 }, 100000)

	counts := tr.CountByKind()
	fmt.Printf("ran %d cycles: %d injections, %d deliveries, %d deflections\n",
		net.Ticks(), counts[trace.Inject], counts[trace.Deliver], counts[trace.Deflect])

	// Find the most-deflected flit and print its life.
	var worstID uint64
	worst := 0
	perFlit := map[uint64]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.Deflect {
			perFlit[e.FlitID]++
			if perFlit[e.FlitID] > worst {
				worst = perFlit[e.FlitID]
				worstID = e.FlitID
			}
		}
	}
	if worstID != 0 {
		fmt.Printf("\nmost-deflected flit (%d bounces) life:\n%s", worst, tr.Dump(worstID))
	} else {
		fmt.Println("\nno deflections occurred (uncontended run)")
	}
}
