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
	"chipletnoc/internal/baseline"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/stats"
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
	core    int
	isRead  bool
	issued  uint64
	readyAt uint64      // memory service completion time
	ch      *memChannel // target channel of the current attempt

	enqueue  func(uint64) // fabric delivery of the request leg
	complete func(uint64) // fabric delivery of the reply leg
}

// memChannel is one memory controller on the fabric.
type memChannel struct {
	node    int
	queue   sim.FIFO[*memRequest]
	inSvc   sim.FIFO[*memRequest]
	replies sim.FIFO[*memRequest]
	tokens  float64
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
	Latency    stats.Histogram
	BytesMoved uint64
}

// canIssue decides whether the core starts a new request this cycle.
func (c *coreState) canIssue() bool {
	if c.load.MaxRequests != 0 && c.issued >= c.load.MaxRequests {
		return false
	}
	if c.inFlight >= c.load.Outstanding {
		return false
	}
	if c.load.Rate < 1 && !c.rng.Bernoulli(c.load.Rate) {
		return false
	}
	return true
}

// MemSystem drives cores against memory channels over a Fabric.
type MemSystem struct {
	cfg   MemSystemConfig
	cores []*coreState
	chans []*memChannel
	now   uint64
	free  []*memRequest // recycled requests (LIFO, deterministic order)
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
	r := &memRequest{}
	r.enqueue = func(uint64) { r.ch.queue.Push(r) }
	r.complete = func(uint64) {
		c := m.cores[r.core]
		c.inFlight--
		c.completed++
		c.BytesMoved += uint64(m.cfg.LineBytes)
		c.Latency.Add(float64(m.now - r.issued))
		m.free = append(m.free, r)
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
	m := &MemSystem{cfg: cfg}
	rng := sim.NewRNG(seed)
	for i, node := range cfg.CoreNodes {
		m.cores = append(m.cores, &coreState{
			index: i, node: node, load: loads[i], rng: rng.Derive(uint64(i)),
			nextMem: i % len(cfg.MemNodes),
		})
	}
	for _, node := range cfg.MemNodes {
		m.chans = append(m.chans, &memChannel{node: node})
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
func (m *MemSystem) Step() {
	f := m.cfg.Fabric
	// Cores issue requests into the fabric.
	for _, c := range m.cores {
		if c.retry == nil && c.canIssue() {
			req := m.newRequest()
			req.core = c.index
			req.isRead = c.rng.Bernoulli(c.load.ReadFraction)
			req.issued = m.now
			c.retry = req
		}
		if c.retry == nil {
			continue
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
	// Memory channels: grant bandwidth, run service, send replies.
	for _, ch := range m.chans {
		ch.tokens += m.cfg.MemBytesPerCycle
		if max := m.cfg.MemBytesPerCycle * 64; ch.tokens > max {
			ch.tokens = max
		}
		for ch.queue.Len() > 0 && ch.tokens >= float64(m.cfg.LineBytes) {
			ch.tokens -= float64(m.cfg.LineBytes)
			req := ch.queue.Pop()
			req.readyAt = m.now + m.cfg.MemLatency
			ch.inSvc.Push(req)
		}
		for ch.inSvc.Len() > 0 && ch.inSvc.Peek().readyAt <= m.now {
			ch.replies.Push(ch.inSvc.Pop())
		}
		for ch.replies.Len() > 0 {
			req := ch.replies.Peek()
			core := m.cores[req.core]
			payload := m.cfg.LineBytes // read data comes back
			if !req.isRead {
				payload = 0 // write ack is header-only
			}
			// req.complete recycles the request at delivery time; the
			// fabrics only deliver from Tick, never inside TrySend, so the
			// head entry is still valid when we pop it below.
			if !f.TrySend(ch.node, core.node, payload, req.complete) {
				break
			}
			ch.replies.Pop()
		}
	}
	f.Tick()
	m.now++
}

// Run advances n cycles.
func (m *MemSystem) Run(n int) {
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
