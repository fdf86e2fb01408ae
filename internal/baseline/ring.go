package baseline

import (
	"fmt"

	"chipletnoc/internal/sim"
)

// RingConfig sizes the buffered bidirectional ring.
type RingConfig struct {
	Nodes int
	// QueueDepth is the per-direction per-router buffer.
	QueueDepth int
	// HopDelay is the per-router latency (buffer + arbitration).
	HopDelay uint64
}

// DefaultRingConfig returns an AMD-CCX-class buffered ring calibration.
func DefaultRingConfig(nodes int) RingConfig {
	return RingConfig{Nodes: nodes, QueueDepth: 8, HopDelay: 2}
}

// BufferedRing is a bidirectional ring bus with store-and-forward
// buffered stops — the intra-CCD organisation of the AMD baselines in
// Table 9. Contrast with the paper's bufferless ring: every hop pays a
// buffer traversal, which is where the latency and energy gap comes from.
type BufferedRing struct {
	cfg RingConfig
	now uint64
	// cwq[i] holds packets waiting at router i to move clockwise;
	// ccwq the other direction. local injections join the chosen
	// direction's queue directly.
	cwq, ccwq []sim.FIFO[*packet]
	// cwCount/ccwCount track total occupancy per directional loop for
	// the global-bubble invariant.
	cwCount, ccwCount int
	stats             deliveryStats
	pool              packetPool

	// Per-Tick scratch reused across cycles (see BufferedMesh).
	claimed []int
	moves   []ringMove

	RouterTraversals uint64
}

// ringMove is one decided packet transfer within a Tick.
type ringMove struct {
	dir   int // 0 = cw, 1 = ccw
	from  int
	to    int
	final bool
}

// NewBufferedRing builds the ring.
func NewBufferedRing(cfg RingConfig) *BufferedRing {
	if cfg.Nodes < 2 {
		panic("baseline: ring needs at least 2 nodes")
	}
	return &BufferedRing{
		cfg:     cfg,
		cwq:     make([]sim.FIFO[*packet], cfg.Nodes),
		ccwq:    make([]sim.FIFO[*packet], cfg.Nodes),
		claimed: make([]int, 2*cfg.Nodes),
	}
}

// Name implements Fabric.
func (r *BufferedRing) Name() string { return fmt.Sprintf("buffered-ring-%d", r.cfg.Nodes) }

// Nodes implements Fabric.
func (r *BufferedRing) Nodes() int { return r.cfg.Nodes }

// Delivered implements Fabric.
func (r *BufferedRing) Delivered() (uint64, uint64) { return r.stats.packets, r.stats.bytes }

// NocCounters returns (hops, router traversals, link transfers) for the
// energy model: every buffered-ring stop is a router traversal.
func (r *BufferedRing) NocCounters() (uint64, uint64, uint64) {
	return r.RouterTraversals, r.RouterTraversals, 0
}

// TrySend implements Fabric: the packet joins the shorter direction's
// queue at the source router. Injection uses bubble flow control: a new
// packet may not take the queue's last free slot, so each directional
// loop always keeps a bubble and in-transit packets can always make
// progress (otherwise a ring of full queues with no deliverable head
// deadlocks).
func (r *BufferedRing) TrySend(src, dst, payloadBytes int, done DeliverFunc) bool {
	if src == dst {
		panic("baseline: ring send to self")
	}
	n := r.cfg.Nodes
	cw := (dst - src + n) % n
	q, count := &r.cwq[src], &r.cwCount
	if ccw := (src - dst + n) % n; ccw < cw {
		q, count = &r.ccwq[src], &r.ccwCount
	}
	// Local room plus the global bubble: the directional loop must never
	// fill completely or a cycle of full queues with no deliverable head
	// deadlocks.
	if q.Len() >= r.cfg.QueueDepth-1 || *count >= r.cfg.Nodes*r.cfg.QueueDepth-1 {
		return false
	}
	*count++
	p := r.pool.get()
	*p = packet{
		dst: dst, payload: payloadBytes, done: done,
		injected: r.now, readyAt: r.now + r.cfg.HopDelay,
	}
	q.Push(p)
	return true
}

// Tick implements Fabric: each direction at each router forwards at most
// one ready packet per cycle to the next stop (or delivers it locally),
// subject to downstream queue space.
func (r *BufferedRing) Tick() {
	n := r.cfg.Nodes
	moves := r.moves[:0]
	claimed := r.claimed // dense index: dir*n + next
	for i := range claimed {
		claimed[i] = 0
	}
	for i := 0; i < n; i++ {
		for dir := 0; dir < 2; dir++ {
			var q *sim.FIFO[*packet]
			var next int
			if dir == 0 {
				q, next = &r.cwq[i], (i+1)%n
			} else {
				q, next = &r.ccwq[i], (i-1+n)%n
			}
			if q.Len() == 0 || q.Peek().readyAt > r.now {
				continue
			}
			if q.Peek().dst == next {
				moves = append(moves, ringMove{dir: dir, from: i, to: next, final: true})
				continue
			}
			key := dir*n + next
			var depth int
			if dir == 0 {
				depth = r.cwq[next].Len()
			} else {
				depth = r.ccwq[next].Len()
			}
			if depth+claimed[key] >= r.cfg.QueueDepth {
				continue
			}
			claimed[key]++
			moves = append(moves, ringMove{dir: dir, from: i, to: next})
		}
	}
	for _, mv := range moves {
		q := &r.cwq[mv.from]
		if mv.dir == 1 {
			q = &r.ccwq[mv.from]
		}
		p := q.Pop()
		r.RouterTraversals++
		if mv.final {
			if mv.dir == 0 {
				r.cwCount--
			} else {
				r.ccwCount--
			}
			r.stats.deliver(p, r.now)
			r.pool.put(p)
			continue
		}
		p.readyAt = r.now + 1 + r.cfg.HopDelay
		if mv.dir == 0 {
			r.cwq[mv.to].Push(p)
		} else {
			r.ccwq[mv.to].Push(p)
		}
	}
	r.moves = moves[:0]
	r.now++
}
