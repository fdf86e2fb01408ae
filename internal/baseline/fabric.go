// Package baseline implements the comparison interconnects the paper
// measures against, behind one Fabric interface so experiments can drive
// identical traffic through every organisation:
//
//   - BufferedMesh — an Intel-style monolithic mesh with input-buffered
//     X-Y routers and credit flow control (Ice Lake-SP class);
//   - BufferedRing — a bidirectional buffered ring bus (AMD CCX class);
//   - SwitchedHub — chiplets whose inter-die traffic funnels through a
//     central IO-die switch (AMD Rome/Milan class);
//   - MultiRing — an adapter exposing this paper's bufferless multi-ring
//     NoC through the same interface.
//
// All four are cycle-accurate queueing models with single-flit packets,
// so "who wins, by roughly what factor, and where the knees fall" is an
// architectural comparison, not a tuning artifact.
package baseline

// DeliverFunc is invoked at packet delivery with the end-to-end latency
// in cycles.
type DeliverFunc func(latency uint64)

// Fabric is an interconnect under test.
type Fabric interface {
	// Name identifies the organisation in experiment output.
	Name() string
	// Nodes returns how many endpoints the fabric has.
	Nodes() int
	// Tick advances one cycle.
	Tick()
	// TrySend injects a packet; false means the injection port is full
	// (retry next cycle). done may be nil.
	TrySend(src, dst, payloadBytes int, done DeliverFunc) bool
	// Delivered returns total packets and payload bytes delivered.
	Delivered() (packets, bytes uint64)
	// Cycles returns the number of Ticks executed.
	Cycles() uint64
}

// Compile-time interface checks for all fabrics.
var (
	_ Fabric = (*BufferedMesh)(nil)
	_ Fabric = (*BufferedRing)(nil)
	_ Fabric = (*SwitchedHub)(nil)
	_ Fabric = (*MultiRing)(nil)
)

// PublishEngineStats reports the cycles a harness drove through f.Tick to
// the process-wide engine totals (noc.EngineTotals) when f wraps a
// noc.Network; the queueing models have no gate to report on. A harness
// calls it once when its run is over.
func PublishEngineStats(f Fabric) {
	if m, ok := f.(*MultiRing); ok {
		m.net.PublishEngineStats()
	}
}

// packet is the common in-flight unit of the queueing models.
type packet struct {
	dst      int
	payload  int
	done     DeliverFunc
	injected uint64
	readyAt  uint64 // earliest cycle the next hop may happen
}

// delivery bookkeeping shared by the models.
type deliveryStats struct {
	packets uint64
	bytes   uint64
}

func (d *deliveryStats) deliver(p *packet, now uint64) {
	d.packets++
	d.bytes += uint64(p.payload)
	if p.done != nil {
		p.done(now - p.injected)
	}
}

// packetPool recycles packets within one fabric. Recycling is LIFO and
// single-threaded (each fabric instance belongs to one experiment
// goroutine), so allocation order — and therefore behaviour — is
// deterministic. Callers release a packet exactly once, after its
// delivery callback has run and no queue references it.
type packetPool struct {
	free []*packet
}

func (pp *packetPool) get() *packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return &packet{}
}

func (pp *packetPool) put(p *packet) {
	p.done = nil
	pp.free = append(pp.free, p)
}
