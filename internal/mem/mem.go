// Package mem models the off-chip memory substrates the NoC bridges to:
// DDR channel controllers for the Server-CPU and HBM stacks for the
// AI-Processor. A controller is a NoC device: it receives CHI request
// flits, applies access latency and a bandwidth cap (token bucket over
// the channel's bytes/cycle), and answers with CompData (reads) or Comp
// (writes).
package mem

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// Config sizes one memory controller.
type Config struct {
	// AccessCycles is the fixed device latency (row activation + CAS +
	// controller pipeline) in NoC cycles.
	AccessCycles int
	// BytesPerCycle is the sustained bandwidth cap in bytes per NoC
	// cycle. One DDR4-3200 channel at a 3 GHz NoC is 25.6 GB/s ≈ 8.5
	// B/cycle; one HBM2E stack at 500 GB/s is ≈ 167 B/cycle.
	BytesPerCycle float64
	// QueueDepth bounds the controller's request queue; arrivals beyond
	// it stay in the NoC eject queue (backpressure).
	QueueDepth int
}

// DDR4Channel returns the Server-CPU controller calibration.
func DDR4Channel() Config {
	return Config{AccessCycles: 90, BytesPerCycle: 8.5, QueueDepth: 32}
}

// HBMStack returns the AI-Processor controller calibration
// (500 GB/s per stack, Section 3.2.2).
func HBMStack() Config {
	return Config{AccessCycles: 60, BytesPerCycle: 167, QueueDepth: 64}
}

// Controller is one memory channel attached to the NoC.
type Controller struct {
	noc.Port
	cfg Config

	// ch holds the requests from acceptance to completion: QueueDepth
	// bounds its queue and its bucket's cap.
	ch      Channel[*chi.Message]
	replies sim.FIFO[*noc.Flit] // ready to inject (retrying on backpressure)
	// bursts holds each write request between its DBIDResp grant and its
	// last data beat, and landed the beats of a burst that have arrived so
	// far, both keyed by burstKey; the write enters the queue when its
	// last beat lands. Two tables of 16-byte slots take less memory than
	// one of {req, beats} pairs, which pad to 24: beat counts are few and
	// short-lived.
	bursts sim.Table[*chi.Message]
	landed sim.Table[int32]

	// Statistics
	Reads, Writes  uint64
	BytesServed    uint64
	QueueFullDrops uint64 // cycles the queue refused arrivals
	StrayWrData    uint64 // surplus write beats from retried transactions
}

// burstKey files a write burst under its requester and TxnID; node IDs
// are not negative, so keys order as (requester, txn) pairs do.
func burstKey(requester noc.NodeID, txn uint32) uint64 {
	return uint64(uint32(requester))<<32 | uint64(txn)
}

// New creates a controller and attaches it to the station.
func New(net *noc.Network, name string, cfg Config, st *noc.CrossStation) *Controller {
	c := &Controller{cfg: cfg,
		ch: NewChannel[*chi.Message](cfg.BytesPerCycle, cfg.QueueDepth, sim.Cycle(cfg.AccessCycles))}
	c.Port = net.PlugQueued(c, name, st, 16, 16)
	return c
}

// Tick implements noc.Device.
func (c *Controller) Tick(now sim.Cycle) {
	// 1. Accept arrivals while the request queue has room. Writes follow
	// the CHI flow: the request gets a DBIDResp buffer grant, the data
	// beats arrive as self-contained (possibly out-of-order) flits, and
	// the write is serviced once its last beat lands.
	for c.ch.queue.Len() < c.cfg.QueueDepth {
		f := c.Iface.Recv()
		if f == nil {
			break
		}
		m := chi.MsgOf(f)
		if m == nil {
			panic(fmt.Sprintf("mem: %s received non-CHI flit %d", c.Name(), f.ID))
		}
		k := burstKey(m.Requester, m.TxnID)
		switch {
		case m.IsWrite():
			c.bursts.Put(k, m)
			grant := chi.NewMsg(c.Net, chi.Message{TxnID: m.TxnID, Op: chi.DBIDResp, Addr: m.Addr, Requester: m.Requester, Size: m.Size})
			c.replies.Push(grant.NewFlit(c.Net, c.Node(), m.Requester))
		case m.Op == chi.NonCopyBackWrData:
			// A write beat ends its trip here, whatever becomes of its write.
			beats := m.Beats()
			chi.Release(c.Net, m)
			req, open := c.bursts.Get(k)
			if !open {
				// With CHI retry active a write can be re-issued while its
				// first data burst is still in flight (the original grant
				// was delayed, not lost); beats landing after the write
				// entered service are surplus, not a protocol error.
				c.StrayWrData++
				break
			}
			n, _ := c.landed.Get(k)
			if n++; int(n) < beats {
				c.landed.Put(k, n)
				break
			}
			c.landed.Delete(k)
			c.bursts.Delete(k)
			c.ch.Push(req)
		default:
			c.ch.Push(m)
		}
		// The message (retained above where needed) outlives its carrier.
		c.Net.ReleaseFlit(f)
	}
	if c.ch.queue.Len() == c.cfg.QueueDepth && c.Iface.EjectLen() > 0 {
		c.QueueFullDrops++
	}
	// 2. Bandwidth grants (every request moves a full line) and
	// completions. The channel replays the refills the controller slept
	// through.
	c.ch.Step(now)
	for req, ok := c.ch.Done(now); ok; req, ok = c.ch.Done(now) {
		c.ch.Pop()
		dst := req.Requester
		if dst == c.Node() {
			continue // no live run asks, a patched checkpoint can
		}
		c.BytesServed += uint64(req.Bytes())
		if req.IsWrite() {
			c.Writes++
			rsp := chi.NewMsg(c.Net, chi.Message{TxnID: req.TxnID, Op: chi.Comp, Addr: req.Addr, Requester: req.Requester, Size: req.Size})
			c.replies.Push(rsp.NewFlit(c.Net, c.Node(), dst))
		} else {
			c.Reads++
			// One data flit per beat; each is independent on the wire.
			for b := 0; b < req.Beats(); b++ {
				rsp := chi.NewMsg(c.Net, chi.Message{TxnID: req.TxnID, Op: chi.CompData, Addr: req.Addr, Requester: req.Requester, Size: req.Size})
				c.replies.Push(rsp.NewFlit(c.Net, c.Node(), dst))
			}
		}
	}
	// 3. Inject replies, retrying under NoC backpressure.
	c.Iface.SendAll(&c.replies)
}

// IdleUntil implements noc.IdleUntiler. The controller is idle when Tick
// would do nothing but refill the token bucket: no arrival to accept, no
// request waiting for a bandwidth grant, no reply to inject. The refills
// it sleeps through are settled later, exactly (Channel.refilled). With
// requests in service it sleeps until the oldest completes (the channel's
// in-service pipeline is in ready order).
func (c *Controller) IdleUntil(now sim.Cycle) sim.Cycle {
	if c.ch.queue.Len()+c.replies.Len() > 0 || c.Iface.EjectLen() > 0 {
		return now
	}
	if c.ch.inSvc.Len() == 0 {
		return noc.Never
	}
	if r := c.ch.inSvc.Peek().ready; r > now {
		return r
	}
	return now
}

// RegisterMetrics exposes the controller's counters and queue depths on
// a metrics registry under "mem.<name>.*". Everything registered only
// reads controller state, so instrumentation never changes behaviour.
func (c *Controller) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "mem." + c.Name()
	reg.Counter(p+".reads", func() uint64 { return c.Reads })
	reg.Counter(p+".writes", func() uint64 { return c.Writes })
	reg.Counter(p+".bytes_served", func() uint64 { return c.BytesServed })
	reg.Counter(p+".queue_full_cycles", func() uint64 { return c.QueueFullDrops })
	reg.Counter(p+".stray_write_beats", func() uint64 { return c.StrayWrData })
	reg.Series(p+".queue", func() float64 { return float64(c.ch.queue.Len() + c.ch.inSvc.Len()) })
	reg.Series(p+".reply_backlog", func() float64 { return float64(c.replies.Len()) })
}

// Pending returns requests inside the controller (queued or in service).
func (c *Controller) Pending() int {
	return c.ch.queue.Len() + c.ch.inSvc.Len() + c.replies.Len()
}
