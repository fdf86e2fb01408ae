package baseline

import (
	"fmt"
	"math"
	"math/bits"

	"chipletnoc/internal/sim"
)

// Mesh port indices.
const (
	portN = iota
	portS
	portE
	portW
	portL
	numPorts
)

// MeshConfig sizes the buffered mesh.
type MeshConfig struct {
	// Width and Height of the router grid; nodes sit one per router.
	Width, Height int
	// QueueDepth is the per-input-port buffer (credit pool).
	QueueDepth int
	// RouterDelay is the pipeline latency of one router traversal
	// (buffer write + route + switch allocation + traversal), charged as
	// one delay: the model has no virtual channels.
	RouterDelay uint64
}

// DefaultMeshConfig returns an Ice-Lake-class mesh calibration: a 3-cycle
// router plus 1-cycle links.
func DefaultMeshConfig(w, h int) MeshConfig {
	return MeshConfig{Width: w, Height: h, QueueDepth: 8, RouterDelay: 3}
}

// BufferedMesh is a dimension-order (X-Y) mesh of input-buffered routers
// with credit flow control — the monolithic-die organisation of the
// Intel baselines in Table 9. Packets are single flits; each router has
// five input FIFOs (N, S, E, W, local), arbitrates each output port
// round-robin over the inputs whose head wants it, and forwards only
// when the downstream input FIFO has space (the credit).
type BufferedMesh struct {
	cfg   MeshConfig
	now   uint64
	inq   [][numPorts]sim.FIFO[*packet] // [router][port]queue
	rr    [][numPorts]int               // round-robin pointers per output port
	stats deliveryStats
	pool  packetPool

	// Derived tables, built once: route[r*n+dst] is the X-Y output port
	// at router r towards dst, nbr[r*numPorts+out] the (router, input
	// port) on the other side of that output (unset for portL and for
	// outputs off the edge of the grid, which X-Y routing never picks).
	route []uint8
	nbr   []meshPort
	// occ counts the packets queued at each router, over all five input
	// ports, and busy has a bit per router with any, so Tick walks only
	// occupied routers. wake[r] is a lower bound on the first cycle a
	// head at router r is ready: set when Tick finds none ready, lowered
	// by every push, unbounded while the router is empty. TrySend and
	// Tick's apply phase keep all three.
	occ  []int
	busy []uint64
	wake []uint64

	// Per-Tick scratch, reused across cycles to keep the hot loop
	// allocation-free: claimed counts downstream (router,port) claims
	// this cycle (all zero between Ticks), moves records the decided
	// transfers.
	claimed []int
	moves   []meshMove

	// RouterTraversals counts buffered-router passages for the energy
	// model.
	RouterTraversals uint64
}

// meshPort names one input port of one router.
type meshPort struct{ r, p int }

// meshMove is one decided packet transfer within a Tick.
type meshMove struct {
	fromR, fromP int
	toR, toP     int
	deliver      bool
}

// NewBufferedMesh builds a w x h mesh.
func NewBufferedMesh(cfg MeshConfig) *BufferedMesh {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic("baseline: mesh needs positive dimensions")
	}
	n := cfg.Width * cfg.Height
	m := &BufferedMesh{
		cfg:     cfg,
		inq:     make([][numPorts]sim.FIFO[*packet], n),
		rr:      make([][numPorts]int, n),
		route:   make([]uint8, n*n),
		nbr:     make([]meshPort, n*numPorts),
		occ:     make([]int, n),
		busy:    make([]uint64, (n+63)/64),
		wake:    make([]uint64, n),
		claimed: make([]int, n*numPorts),
	}
	for r := range m.wake {
		m.wake[r] = math.MaxUint64
	}
	for r := 0; r < n; r++ {
		for dst := 0; dst < n; dst++ {
			out := m.outPort(r, dst)
			m.route[r*n+dst] = uint8(out)
			if out != portL {
				nr, np := m.neighbor(r, out)
				m.nbr[r*numPorts+out] = meshPort{nr, np}
			}
		}
	}
	return m
}

// Name implements Fabric.
func (m *BufferedMesh) Name() string {
	return fmt.Sprintf("buffered-mesh-%dx%d", m.cfg.Width, m.cfg.Height)
}

// Nodes implements Fabric.
func (m *BufferedMesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Delivered implements Fabric.
func (m *BufferedMesh) Delivered() (uint64, uint64) { return m.stats.packets, m.stats.bytes }

// NocCounters returns (hops, router traversals, link transfers) for the
// energy model: every mesh hop is a buffered-router traversal.
func (m *BufferedMesh) NocCounters() (uint64, uint64, uint64) {
	return m.RouterTraversals, m.RouterTraversals, 0
}

func (m *BufferedMesh) xy(id int) (int, int) { return id % m.cfg.Width, id / m.cfg.Width }
func (m *BufferedMesh) id(x, y int) int      { return y*m.cfg.Width + x }

// outPort picks the X-Y dimension-order output for a packet at router r.
func (m *BufferedMesh) outPort(r int, dst int) int {
	x, y := m.xy(r)
	dx, dy := m.xy(dst)
	switch {
	case dx > x:
		return portE
	case dx < x:
		return portW
	case dy > y:
		return portS
	case dy < y:
		return portN
	default:
		return portL
	}
}

// neighbor returns the router on the other side of an output port and the
// input port the packet arrives on there.
func (m *BufferedMesh) neighbor(r, out int) (int, int) {
	x, y := m.xy(r)
	switch out {
	case portE:
		return m.id(x+1, y), portW
	case portW:
		return m.id(x-1, y), portE
	case portS:
		return m.id(x, y+1), portN
	case portN:
		return m.id(x, y-1), portS
	default:
		panic("baseline: neighbor of local port")
	}
}

// TrySend implements Fabric.
func (m *BufferedMesh) TrySend(src, dst, payloadBytes int, done DeliverFunc) bool {
	if src == dst {
		panic("baseline: mesh send to self")
	}
	if m.inq[src][portL].Len() >= m.cfg.QueueDepth {
		return false
	}
	p := m.pool.get()
	*p = packet{
		dst: dst, payload: payloadBytes, done: done,
		injected: m.now, readyAt: m.now + m.cfg.RouterDelay,
	}
	m.push(src, portL, p)
	return true
}

// push queues p at input port of router r.
func (m *BufferedMesh) push(r, port int, p *packet) {
	m.inq[r][port].Push(p)
	m.occ[r]++
	m.busy[r>>6] |= 1 << (r & 63)
	m.wake[r] = min(m.wake[r], p.readyAt)
}

// Tick implements Fabric: every router moves at most one packet per
// output port per cycle, chosen round-robin across its input ports, with
// credit (queue space) checks at the downstream router. The work is
// proportional to the routers with a ready head: empty routers are not
// walked, a router is skipped until its wake bound (a router with no
// ready head arbitrates nothing and moves no round-robin pointer, so
// skipping it is exact), each occupied input's head is looked up once,
// and only the outputs some head wants are arbitrated.
func (m *BufferedMesh) Tick() {
	n := m.Nodes()
	moves := m.moves[:0]
	// Phase 1: decide all moves against the pre-cycle state so routers
	// evaluate simultaneously (downstream space is checked against the
	// snapshot, which keeps credits conservative). claimed counts this
	// cycle's downstream (router,port) claims, dense-indexed. Moves are
	// emitted router-major, output-minor: delivery callbacks run in that
	// order and feed float sums, so the order is observable.
	claimed := m.claimed
	for w, word := range m.busy {
		for ; word != 0; word &= word - 1 {
			r := w<<6 | bits.TrailingZeros64(word)
			if m.wake[r] > m.now {
				continue
			}
			// want[in] is the output the head of input in is ready to take
			// this cycle (numPorts: none); wanted is the set of such
			// outputs, and first the earliest cycle a head not ready is.
			want := [numPorts]uint8{numPorts, numPorts, numPorts, numPorts, numPorts}
			wanted, first := uint(0), uint64(math.MaxUint64)
			for in := range &m.inq[r] {
				q := &m.inq[r][in]
				if q.Len() == 0 {
					continue
				}
				if at := q.Peek().readyAt; at > m.now {
					first = min(first, at)
					continue
				}
				out := m.route[r*n+q.Peek().dst]
				want[in] = out
				wanted |= 1 << out
			}
			if wanted == 0 {
				m.wake[r] = first
				continue
			}
			for out := 0; wanted>>out != 0; out++ {
				if wanted>>out&1 == 0 {
					continue
				}
				// Round-robin over input ports for this output.
				in := m.rr[r][out]
				for i := 0; i < numPorts; i, in = i+1, in+1 {
					if in == numPorts {
						in = 0
					}
					if int(want[in]) != out {
						continue
					}
					if out == portL {
						moves = append(moves, meshMove{fromR: r, fromP: in, deliver: true})
					} else {
						to := m.nbr[r*numPorts+out]
						key := to.r*numPorts + to.p
						if m.inq[to.r][to.p].Len()+claimed[key] >= m.cfg.QueueDepth {
							continue // no credit downstream
						}
						claimed[key]++
						moves = append(moves, meshMove{fromR: r, fromP: in, toR: to.r, toP: to.p})
					}
					m.rr[r][out] = (in + 1) % numPorts
					break
				}
			}
		}
	}
	// Phase 2: apply.
	for _, mv := range moves {
		p := m.inq[mv.fromR][mv.fromP].Pop()
		if m.occ[mv.fromR]--; m.occ[mv.fromR] == 0 {
			m.busy[mv.fromR>>6] &^= 1 << (mv.fromR & 63)
			m.wake[mv.fromR] = math.MaxUint64
		}
		m.RouterTraversals++
		if mv.deliver {
			m.stats.deliver(p, m.now)
			m.pool.put(p)
			continue
		}
		p.readyAt = m.now + 1 + m.cfg.RouterDelay // link + next router pipeline
		m.push(mv.toR, mv.toP, p)
		claimed[mv.toR*numPorts+mv.toP] = 0
	}
	m.moves = moves[:0]
	m.now++
}
