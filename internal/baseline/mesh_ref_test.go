package baseline

import (
	"fmt"
	"testing"

	"chipletnoc/internal/sim"
)

// refTick is the mesh arbitration as it was before Tick became
// occupancy-driven, kept verbatim as the naive model Tick must agree
// with: every router x 5 outputs x 5 inputs is probed every cycle, and
// the route and the neighbour are derived from coordinates each time
// rather than read from the tables. It steps the same struct (so TrySend
// is shared) but reads none of the derived state Tick relies on — route,
// nbr, occ — and leaves occ stale, which only matters to Tick.
func (m *BufferedMesh) refTick() {
	n := m.Nodes()
	moves := m.moves[:0]
	// Phase 1: decide all moves against the pre-cycle state so routers
	// evaluate simultaneously (downstream space is checked against the
	// snapshot, which keeps credits conservative). claimed counts this
	// cycle's downstream (router,port) claims, dense-indexed.
	claimed := m.claimed
	for i := range claimed {
		claimed[i] = 0
	}
	for r := 0; r < n; r++ {
		for out := 0; out < numPorts; out++ {
			// Round-robin over input ports for this output.
			for i := 0; i < numPorts; i++ {
				in := (m.rr[r][out] + i) % numPorts
				q := &m.inq[r][in]
				if q.Len() == 0 {
					continue
				}
				p := q.Peek()
				if p.readyAt > m.now || m.outPort(r, p.dst) != out {
					continue
				}
				if out == portL {
					moves = append(moves, meshMove{fromR: r, fromP: in, deliver: true})
					m.rr[r][out] = (in + 1) % numPorts
					break
				}
				nr, np := m.neighbor(r, out)
				key := nr*numPorts + np
				if m.inq[nr][np].Len()+claimed[key] >= m.cfg.QueueDepth {
					continue // no credit downstream
				}
				claimed[key]++
				moves = append(moves, meshMove{fromR: r, fromP: in, toR: nr, toP: np})
				m.rr[r][out] = (in + 1) % numPorts
				break
			}
		}
	}
	// Phase 2: apply.
	for _, mv := range moves {
		p := m.inq[mv.fromR][mv.fromP].Pop()
		m.RouterTraversals++
		if mv.deliver {
			m.stats.deliver(p, m.now)
			m.pool.put(p)
			continue
		}
		p.readyAt = m.now + 1 + m.cfg.RouterDelay // link + next router pipeline
		m.inq[mv.toR][mv.toP].Push(p)
	}
	m.moves = moves[:0]
	m.now++
}

// meshTraffic decides, for one source on one cycle, whether it offers a
// packet and to whom.
type meshTraffic struct {
	name string
	pick func(rng *sim.RNG, w, h, src int) (dst int, send bool)
}

func uniformTraffic(rate float64) meshTraffic {
	return meshTraffic{
		name: fmt.Sprintf("uniform-%g", rate),
		pick: func(rng *sim.RNG, w, h, src int) (int, bool) {
			if !rng.Bernoulli(rate) {
				return 0, false
			}
			return uniformDst(rng, w*h, src), true
		},
	}
}

var meshTraffics = []meshTraffic{
	uniformTraffic(0.02),
	uniformTraffic(0.2),
	uniformTraffic(0.9),
	{
		// Every node floods one router near the middle of the grid: its
		// local output and the four inputs around it stay contended.
		name: "hotspot",
		pick: func(rng *sim.RNG, w, h, src int) (int, bool) {
			hot := (w * h) / 2
			return hot, src != hot && rng.Bernoulli(0.5)
		},
	},
	{
		// Column x sends to column w-1-x, one row down (wrapping): a
		// permutation offered at full rate, whose wrapped row crosses the
		// whole destination column and saturates its links.
		name: "column-permutation",
		pick: func(rng *sim.RNG, w, h, src int) (int, bool) {
			x, y := src%w, src/w
			dst := ((y+1)%h)*w + (w - 1 - x)
			return dst, dst != src
		},
	},
}

// meshEvent is one delivery as the callback saw it.
type meshEvent struct {
	cycle, lat uint64
	src, dst   int
}

// TestMeshMatchesReference drives Tick and refTick with the same seeded
// traffic and demands the same decisions every cycle: deliveries in
// callback order, traversal count, every queue's length and every
// round-robin pointer. Router delays 0 to 7 move when heads come ready
// (a local injection at delay 0 is ready the cycle it is sent), and the
// 9x8 mesh's 72 routers fill a second word of the occupied-router set.
// A subtest at the default delay carries no delay in its name.
func TestMeshMatchesReference(t *testing.T) {
	geometries := [][2]int{{1, 4}, {4, 1}, {4, 4}, {5, 6}, {6, 6}, {9, 8}}
	for _, g := range geometries {
		for _, depth := range []int{1, 2, 8} {
			for _, delay := range []uint64{0, 1, 3, 7} {
				for ti, tr := range meshTraffics {
					cfg := DefaultMeshConfig(g[0], g[1])
					seed := uint64(1000*g[0] + 100*g[1] + 10*depth + ti)
					name := fmt.Sprintf("%dx%d/depth%d/%s", g[0], g[1], depth, tr.name)
					if delay != cfg.RouterDelay {
						seed += 100000 * (delay + 1)
						name = fmt.Sprintf("%dx%d/depth%d/delay%d/%s", g[0], g[1], depth, delay, tr.name)
					}
					cfg.QueueDepth, cfg.RouterDelay = depth, delay
					t.Run(name, func(t *testing.T) {
						checkMeshAgainstReference(t, cfg, tr, seed)
					})
				}
			}
		}
	}
}

func checkMeshAgainstReference(t *testing.T, cfg MeshConfig, tr meshTraffic, seed uint64) {
	const loaded, drain = 600, 300
	got, ref := NewBufferedMesh(cfg), NewBufferedMesh(cfg)
	var gotEv, refEv []meshEvent
	rng := sim.NewRNG(seed)
	n := got.Nodes()
	for cyc := uint64(0); cyc < loaded+drain; cyc++ {
		for src := 0; src < n && cyc < loaded; src++ {
			dst, send := tr.pick(rng, cfg.Width, cfg.Height, src)
			if !send {
				continue
			}
			src, cyc := src, cyc
			okGot := got.TrySend(src, dst, 64, func(l uint64) { gotEv = append(gotEv, meshEvent{cyc, l, src, dst}) })
			okRef := ref.TrySend(src, dst, 64, func(l uint64) { refEv = append(refEv, meshEvent{cyc, l, src, dst}) })
			if okGot != okRef {
				t.Fatalf("cycle %d: TrySend(%d→%d) accepted=%v, reference %v", cyc, src, dst, okGot, okRef)
			}
		}
		got.Tick()
		ref.refTick()

		if len(gotEv) != len(refEv) {
			t.Fatalf("cycle %d: %d deliveries, reference %d", cyc, len(gotEv), len(refEv))
		}
		for i := range gotEv {
			if gotEv[i] != refEv[i] {
				t.Fatalf("cycle %d: delivery %d is %+v, reference %+v", cyc, i, gotEv[i], refEv[i])
			}
		}
		gotEv, refEv = gotEv[:0], refEv[:0]
		if got.RouterTraversals != ref.RouterTraversals {
			t.Fatalf("cycle %d: %d router traversals, reference %d", cyc, got.RouterTraversals, ref.RouterTraversals)
		}
		for r := 0; r < n; r++ {
			if got.rr[r] != ref.rr[r] {
				t.Fatalf("cycle %d: router %d round-robin pointers %v, reference %v", cyc, r, got.rr[r], ref.rr[r])
			}
			queued := 0
			for p := 0; p < numPorts; p++ {
				if got.inq[r][p].Len() != ref.inq[r][p].Len() {
					t.Fatalf("cycle %d: router %d port %d holds %d, reference %d", cyc, r, p, got.inq[r][p].Len(), ref.inq[r][p].Len())
				}
				queued += got.inq[r][p].Len()
			}
			if got.occ[r] != queued {
				t.Fatalf("cycle %d: router %d occupancy count %d, queues hold %d", cyc, r, got.occ[r], queued)
			}
			if busy := got.busy[r>>6]>>(r&63)&1 == 1; busy != (queued > 0) {
				t.Fatalf("cycle %d: router %d busy bit %v with %d queued", cyc, r, busy, queued)
			}
			for p := 0; p < numPorts; p++ {
				if q := &got.inq[r][p]; q.Len() > 0 && q.Peek().readyAt < got.wake[r] {
					t.Fatalf("cycle %d: router %d port %d head ready at %d, before the router's wake bound %d", cyc, r, p, q.Peek().readyAt, got.wake[r])
				}
			}
		}
		for key, c := range got.claimed {
			if c != 0 {
				t.Fatalf("cycle %d: claim count %d left on (router,port) %d after Tick", cyc, c, key)
			}
		}
	}
	if pk, _ := got.Delivered(); pk == 0 {
		t.Fatal("no packet was delivered: the traffic exercised nothing")
	}
}
