// Package workloads models the paper's benchmark suites on top of the
// simulated fabrics: LMBench streaming kernels (Figure 10), the DDR
// latency-competition experiment (Figure 11), SPECint memory-sensitivity
// models (Figures 12 and 13), SPECpower (Table 6) and MLPerf training
// traces (Table 8).
//
// The proprietary suites cannot be redistributed, so each benchmark is
// reduced to the characteristics through which the NoC affects it —
// request mix, locality, memory-level parallelism, arithmetic intensity —
// and those characteristics drive the cycle-accurate fabric simulation.
package workloads

import (
	"math"
	"math/bits"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/sim"
)

// MemSystemConfig describes a memory system built on any Fabric: some
// endpoint indices are cores, some are memory channels. This is the
// apples-to-apples harness: the identical workload runs on the
// bufferless multi-ring, the buffered mesh, and the switched hub.
type MemSystemConfig struct {
	Fabric    baseline.Fabric
	CoreNodes []int
	MemNodes  []int
	// MemLatency is each channel's access latency in cycles.
	MemLatency uint64
	// MemBytesPerCycle is each channel's bandwidth cap.
	MemBytesPerCycle float64
	// LineBytes is the transfer granule.
	LineBytes int
}

// CoreLoad shapes one core's request stream.
type CoreLoad struct {
	// Rate is the per-cycle issue probability (1 = closed loop bounded
	// by Outstanding).
	Rate float64
	// Outstanding bounds in-flight requests (memory-level parallelism).
	Outstanding int
	// ReadFraction of requests read; the rest write.
	ReadFraction float64
	// MaxRequests stops the core after this many issues (0 = endless).
	MaxRequests uint64
}

// memRequest is an in-flight transaction. Requests are pooled on the
// MemSystem free-list, and each carries its two delivery callbacks built
// once at first allocation: the closures capture only the stable request
// pointer and read the routing fields (ch, core) at delivery time, so a
// recycled request reuses them without allocating.
type memRequest struct {
	core   int
	isRead bool
	issued uint64
	ch     *memChannel // target channel of the current attempt
	line   int         // bytes the channel grants: the harness's line

	enqueue  func(uint64) // fabric delivery of the request leg
	complete func(uint64) // fabric delivery of the reply leg
}

// Bytes is what the request takes from its channel's bucket.
func (r *memRequest) Bytes() int { return r.line }

// channelDepth caps each channel's bucket at 64 cycles of bandwidth; its
// queue is unbounded (requests wait there, not in the fabric).
const channelDepth = 64

// memChannel is one memory controller on the fabric.
type memChannel struct {
	node int
	mem.Channel[*memRequest]
}

// coreState is one core's generator state.
type coreState struct {
	index      int
	node       int
	load       CoreLoad
	rng        *sim.RNG
	nextMem    int
	inFlight   int
	issued     uint64
	completed  uint64
	retry      *memRequest // request whose fabric injection is pending
	latencySum float64     // completed round trips, summed in completion order
	BytesMoved uint64

	// Out of the active set, a core waits for one thing: wake, the cycle
	// its draws next win (won) or run out; a completion (blocked); or
	// nothing, for good.
	wake         uint64
	won, blocked bool
}

// MeanLatency returns the mean round trip of the core's completed
// requests in cycles, or 0 before the first completes.
func (c *coreState) MeanLatency() float64 {
	if c.completed == 0 {
		return 0
	}
	return c.latencySum / float64(c.completed)
}

// drawHorizon bounds how many cycles of Bernoulli(Rate) outcomes a core
// draws ahead when no Run end comes sooner: a core whose rate is below
// 1/drawHorizon wakes once a horizon to draw on.
const drawHorizon = 256

// MemSystem drives cores against memory channels over a Fabric.
type MemSystem struct {
	cfg   MemSystemConfig
	cores []*coreState
	chans []*memChannel
	now   uint64
	free  []*memRequest // recycled requests (LIFO, deterministic order)

	// active has a bit per core that can act this cycle, walked in index
	// order so TrySend calls keep the order of a walk over every core;
	// sleeping has one per core waiting for its wake cycle, the earliest
	// of which is nextWake. end is the cycle the current Run stops at,
	// past which no core draws ahead.
	active, sleeping []uint64
	nextWake, end    uint64
	visits           uint64 // cores visited, over every Step
}

// newRequest takes a request from the free-list, or builds one — with its
// reusable delivery closures — on a cold pool. Recycling is LIFO so the
// allocation pattern is deterministic run-to-run.
func (m *MemSystem) newRequest() *memRequest {
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return r
	}
	r := &memRequest{line: m.cfg.LineBytes}
	r.enqueue = func(uint64) { r.ch.Push(r) }
	r.complete = func(uint64) {
		c := m.cores[r.core]
		c.inFlight--
		c.completed++
		c.BytesMoved += uint64(m.cfg.LineBytes)
		c.latencySum += float64(m.now - r.issued)
		m.free = append(m.free, r)
		if c.blocked { // below Outstanding again: it can issue next cycle
			c.blocked = false
			m.active[c.index>>6] |= 1 << (c.index & 63)
		}
	}
	return r
}

// NewMemSystem builds the harness; loads[i] shapes core i.
func NewMemSystem(cfg MemSystemConfig, loads []CoreLoad, seed uint64) *MemSystem {
	if len(loads) != len(cfg.CoreNodes) {
		panic("workloads: one CoreLoad per core required")
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	m := &MemSystem{cfg: cfg, nextWake: math.MaxUint64,
		active: make([]uint64, (len(loads)+63)/64), sleeping: make([]uint64, (len(loads)+63)/64)}
	rng := sim.NewRNG(seed)
	for i, node := range cfg.CoreNodes {
		m.cores = append(m.cores, &coreState{
			index: i, node: node, load: loads[i], rng: rng.Derive(uint64(i)),
			nextMem: i % len(cfg.MemNodes),
		})
		m.active[i>>6] |= 1 << (i & 63)
	}
	for _, node := range cfg.MemNodes {
		m.chans = append(m.chans, &memChannel{node: node,
			Channel: mem.NewChannel[*memRequest](cfg.MemBytesPerCycle, channelDepth, sim.Cycle(cfg.MemLatency))})
	}
	return m
}

// Core returns core i's state for measurements.
func (m *MemSystem) Core(i int) *coreState { return m.cores[i] }

// TotalBytes returns all payload bytes moved by all cores.
func (m *MemSystem) TotalBytes() uint64 {
	var b uint64
	for _, c := range m.cores {
		b += c.BytesMoved
	}
	return b
}

// Cycles returns elapsed harness cycles.
func (m *MemSystem) Cycles() uint64 { return m.now }

// Step advances one cycle: cores issue, channels serve, replies return.
// Only the cores that can act are visited (see ready), and a channel is
// stepped only while a request waits for its grant: a Step with none
// waiting only refills the bucket, which the next Step replays exactly.
func (m *MemSystem) Step() {
	f := m.cfg.Fabric
	if m.now >= m.nextWake {
		m.wakeSleepers()
	}
	// Cores issue requests into the fabric.
	for w, word := range m.active {
		for ; word != 0; word &= word - 1 {
			c := m.cores[w<<6|bits.TrailingZeros64(word)]
			m.visits++
			if c.retry == nil {
				if !m.ready(c) {
					continue
				}
				req := m.newRequest()
				req.core = c.index
				req.isRead = c.rng.Bernoulli(c.load.ReadFraction)
				req.issued = m.now
				c.retry = req
			}
			req := c.retry
			req.ch = m.chans[c.nextMem]
			payload := m.cfg.LineBytes // writes carry data out
			if req.isRead {
				payload = 0 // read request is header-only
			}
			ok := f.TrySend(c.node, req.ch.node, payload, req.enqueue)
			if ok {
				c.nextMem = (c.nextMem + 1) % len(m.chans)
				c.inFlight++
				c.issued++
				c.retry = nil
			}
		}
	}
	// Memory channels: grant bandwidth, then send each completed request's
	// reply, oldest first, while the fabric takes them.
	now := sim.Cycle(m.now)
	for _, ch := range m.chans {
		if ch.Waiting() > 0 {
			ch.Step(now)
		}
		for req, ok := ch.Done(now); ok; req, ok = ch.Done(now) {
			payload := m.cfg.LineBytes // read data comes back
			if !req.isRead {
				payload = 0 // write ack is header-only
			}
			// req.complete recycles the request at delivery time; the
			// fabrics only deliver from Tick, never inside TrySend, so the
			// head entry is still valid when we pop it below.
			if !f.TrySend(ch.node, m.cores[req.core].node, payload, req.complete) {
				break
			}
			ch.Pop()
		}
	}
	f.Tick()
	m.now++
}

// ready decides whether core c, with no request pending, starts one this
// cycle, as a core visited every cycle would: not past MaxRequests, below
// Outstanding, then one Bernoulli(Rate) draw from its own stream. When it
// does not, c leaves the active set until it can: for good at zero rate
// or MaxRequests (nothing changes either), until a completion at
// Outstanding (only that lowers inFlight), and otherwise until its draws
// win. Nothing but those draws changes a core waiting on them, so they
// are taken ahead, in order, one a cycle up to the first win or the
// horizon; the core sleeps until that cycle, and a win is spent there.
func (m *MemSystem) ready(c *coreState) bool {
	rate := c.load.Rate
	switch {
	case c.load.MaxRequests != 0 && c.issued >= c.load.MaxRequests, rate <= 0:
	case c.inFlight >= c.load.Outstanding:
		c.blocked = true
	case rate >= 1:
		return true
	case c.won:
		c.won = false
		return true
	default:
		limit := m.now + drawHorizon
		if m.end > m.now {
			limit = min(limit, m.end)
		}
		at := m.now
		for at < limit && !c.rng.Bernoulli(rate) {
			at++
		}
		if at == m.now {
			return true
		}
		c.wake, c.won = at, at < limit
		m.nextWake = min(m.nextWake, at)
		m.sleeping[c.index>>6] |= 1 << (c.index & 63)
	}
	m.active[c.index>>6] &^= 1 << (c.index & 63)
	return false
}

// wakeSleepers moves every core whose wake cycle has come from the
// sleeping set to the active one, and finds the next wake cycle.
func (m *MemSystem) wakeSleepers() {
	m.nextWake = math.MaxUint64
	for w, word := range m.sleeping {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if c := m.cores[i]; c.wake > m.now {
				m.nextWake = min(m.nextWake, c.wake)
				continue
			}
			m.sleeping[w] &^= 1 << (i & 63)
			m.active[w] |= 1 << (i & 63)
		}
	}
}

// Run advances n cycles.
func (m *MemSystem) Run(n int) {
	m.end = m.now + uint64(n)
	for i := 0; i < n; i++ {
		m.Step()
	}
	baseline.PublishEngineStats(m.cfg.Fabric)
}

// BandwidthGBps converts the harness's byte counters to GB/s at 3 GHz.
func (m *MemSystem) BandwidthGBps() float64 {
	if m.now == 0 {
		return 0
	}
	return float64(m.TotalBytes()) / float64(m.now) * 3e9 / 1e9
}

// PeakMemGBps is the aggregate channel bandwidth ceiling.
func (m *MemSystem) PeakMemGBps() float64 {
	return m.cfg.MemBytesPerCycle * float64(len(m.chans)) * 3e9 / 1e9
}

// Utilization is achieved/peak memory bandwidth — the DDR-normalised
// metric Figure 10 compares across systems.
func (m *MemSystem) Utilization() float64 {
	peak := m.PeakMemGBps()
	if peak == 0 {
		return 0
	}
	return m.BandwidthGBps() / peak
}
