package workloads

import (
	"math"
	"testing"

	"chipletnoc/internal/baseline"
	"chipletnoc/internal/sim"
)

// refStep is Step as it was before cores and channels could sleep, kept
// as the every-cycle model Step must agree with: every core is visited
// and every channel stepped on every cycle, and a core that could issue
// takes its Bernoulli(Rate) draw on the cycle it issues or not. It steps
// the same struct (so requests and their delivery callbacks are shared)
// but reads none of the state Step keeps to skip — active, sleeping,
// wake, won, blocked — which the completion callback leaves stale here.
func (m *MemSystem) refStep() {
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
	// Memory channels: grant bandwidth, then send each completed request's
	// reply, oldest first, while the fabric takes them.
	now := sim.Cycle(m.now)
	for _, ch := range m.chans {
		ch.Step(now)
		for req, ok := ch.Done(now); ok; req, ok = ch.Done(now) {
			payload := m.cfg.LineBytes // read data comes back
			if !req.isRead {
				payload = 0 // write ack is header-only
			}
			if !f.TrySend(ch.node, m.cores[req.core].node, payload, req.complete) {
				break
			}
			ch.Pop()
		}
	}
	f.Tick()
	m.now++
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

// sendLog wraps a fabric, records every TrySend call and, after each
// Tick, runs then.
type sendLog struct {
	baseline.Fabric
	sends []sendCall
	then  func()
}

type sendCall struct {
	src, dst, payload int
	ok                bool
}

func (l *sendLog) TrySend(src, dst, payload int, done baseline.DeliverFunc) bool {
	ok := l.Fabric.TrySend(src, dst, payload, done)
	l.sends = append(l.sends, sendCall{src, dst, payload, ok})
	return ok
}

func (l *sendLog) Tick() {
	l.Fabric.Tick()
	if l.then != nil {
		l.then()
	}
}

// shapeLoad decodes one byte into a core load: the rate (zero, down to
// 1e-4, closed loop), the outstanding budget (1, 2 or the system's),
// MaxRequests (endless, 3 or 40) and the read fraction.
func shapeLoad(b byte, mlp int) CoreLoad {
	rates := []float64{0, 1e-4, 0.003, 0.05, 0.4, 0.9, 1}
	return CoreLoad{
		Rate:         rates[int(b)%len(rates)],
		Outstanding:  []int{1, 2, mlp}[int(b)/7%3],
		MaxRequests:  []uint64{0, 0, 3, 40}[int(b)/21%4],
		ReadFraction: []float64{0, 0.5, 1}[int(b)/84%3],
	}
}

// FuzzMemSystemMatchesEveryCycle runs the sleeping harness in lock-step
// with refStep on a twin system. fabric picks the organisation, shapes
// the core loads (one byte a core, cycling; shapeLoad), and plan the
// calls: Run(plan&0x3ff), then (plan>>10&7)*40 bare Steps, whose
// draw-ahead only the horizon bounds, then Run((plan>>13)*250). After
// every Tick it compares the cycle's TrySend calls, every core's counters
// and latency sum, and every channel's queue and in-service lengths and
// settled bucket.
func FuzzMemSystemMatchesEveryCycle(f *testing.F) {
	mixed := []byte{0, 1, 2, 3, 4, 5, 6, 11, 25, 46, 90, 174, 200, 251}
	f.Add(uint64(1), uint8(0), mixed, uint16(700|3<<10|5<<13))
	f.Add(uint64(2), uint8(1), mixed, uint16(500|2<<10|4<<13))
	f.Add(uint64(3), uint8(2), mixed, uint16(900|7<<10|2<<13))
	f.Add(uint64(4), uint8(3), mixed, uint16(300|1<<10|6<<13))
	f.Add(uint64(5), uint8(0), []byte{1, 2}, uint16(0|4<<10|7<<13))         // rare issuers, Step before any Run
	f.Add(uint64(6), uint8(1), []byte{4, 11, 46}, uint16(1000|1<<10|3<<13)) // Outstanding 1 and 2, MaxRequests 3
	f.Add(uint64(7), uint8(2), []byte{0, 6, 90}, uint16(800|2<<10|1<<13))   // zero-rate cores beside closed loops
	f.Add(uint64(8), uint8(3), []byte{5, 200, 251}, uint16(600|6<<10|4<<13))
	f.Fuzz(func(t *testing.T, seed uint64, fabric uint8, shapes []byte, plan uint16) {
		q := quickFabrics()[int(fabric)%4]
		loads := make([]CoreLoad, len(q.cores))
		for i := range loads {
			var b byte
			if len(shapes) > 0 {
				b = shapes[i%len(shapes)]
			}
			loads[i] = shapeLoad(b, q.mlp)
		}
		gotLog, refLog := &sendLog{Fabric: q.fabric()}, &sendLog{Fabric: q.fabric()}
		got, ref := NewMemSystem(q.config(gotLog), loads, seed), NewMemSystem(q.config(refLog), loads, seed)
		gotLog.then = func() {
			ref.refStep()
			at := got.now // Step has not counted this cycle yet
			if len(gotLog.sends) != len(refLog.sends) {
				t.Fatalf("cycle %d: %d TrySend calls %v, every-cycle %v", at, len(gotLog.sends), gotLog.sends, refLog.sends)
			}
			for i := range gotLog.sends {
				if gotLog.sends[i] != refLog.sends[i] {
					t.Fatalf("cycle %d: TrySend %d is %+v, every-cycle %+v", at, i, gotLog.sends[i], refLog.sends[i])
				}
			}
			gotLog.sends, refLog.sends = gotLog.sends[:0], refLog.sends[:0]
			for i, c := range got.cores {
				w := ref.cores[i]
				if c.inFlight != w.inFlight || c.issued != w.issued || c.completed != w.completed ||
					c.BytesMoved != w.BytesMoved || c.nextMem != w.nextMem || (c.retry == nil) != (w.retry == nil) ||
					math.Float64bits(c.latencySum) != math.Float64bits(w.latencySum) {
					t.Fatalf("cycle %d: core %d (%+v) is %+v, every-cycle %+v", at, i, c.load, *c, *w)
				}
			}
			for i, ch := range got.chans {
				w := ref.chans[i]
				if ch.Waiting() != w.Waiting() || ch.InService() != w.InService() {
					t.Fatalf("cycle %d: channel %d holds %d queued/%d in service, every-cycle %d/%d",
						at, i, ch.Waiting(), ch.InService(), w.Waiting(), w.InService())
				}
				end := sim.Cycle(ref.now)
				if g, r := ch.Bucket(end), w.Bucket(end); math.Float64bits(g) != math.Float64bits(r) {
					t.Fatalf("cycle %d: channel %d settled bucket %v, every-cycle %v", at, i, g, r)
				}
			}
		}
		got.Run(int(plan & 0x3ff))
		for range int(plan>>10&7) * 40 {
			got.Step()
		}
		got.Run(int(plan>>13) * 250)
		if got.now != ref.now {
			t.Fatalf("ran %d cycles, every-cycle twin %d", got.now, ref.now)
		}
	})
}

// TestHarnessSleeps holds the sleeping harness to what it is for: on the
// Quick Figure 10 loads (each LMBench kernel single-core and all-core on
// the three organisations that artifact compares), the cores it visits
// are at most a tenth of the core-cycles a visit to every core every
// cycle would make.
func TestHarnessSleeps(t *testing.T) {
	var visits, coreCycles uint64
	for _, q := range quickFabrics()[:3] {
		spec := SystemSpec{Cores: len(q.cores), MemChannels: len(q.memories), CoreMLP: q.mlp}
		for _, k := range LMBenchKernels() {
			load := CoreLoad{Rate: k.Rate, Outstanding: max(1, int(float64(q.mlp)*k.MLPScale+0.5)), ReadFraction: k.ReadFraction}
			for _, loads := range [][]CoreLoad{spec.SingleCoreLoad(load), spec.UniformLoads(load)} {
				m := NewMemSystem(q.config(q.fabric()), loads, 0xF16)
				m.Run(lmbenchCycles)
				visits += m.visits
				coreCycles += uint64(len(q.cores)) * m.now
			}
		}
	}
	share := float64(visits) / float64(coreCycles)
	t.Logf("visited %d of %d core-cycles (%.1f%%)", visits, coreCycles, 100*share)
	if share > 0.10 {
		t.Errorf("visited %.1f%% of core-cycles, want at most 10%%: cores that cannot act are being visited", 100*share)
	}
}
