// Per-die serving engine: the device that turns a command's transfer
// into CHI traffic. It owns a node on its die's ring, keeps an
// outstanding-transaction table, and follows the same completion-first
// tick discipline as traffic.Requester. The engine never touches the
// orchestrator: it consumes its input queue (written by the orchestrator
// at the end of the previous cycle) and appends finished commands to its
// own done list (drained by the orchestrator at the end of this cycle).
// Almost every cycle it has nothing to receive, send or issue; IdleUntil says so and
// the tick engine skips it until an ejection or enqueue wakes it.
package serving

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// engineOutstanding sizes the per-engine CHI transaction table.
const engineOutstanding = 32

// engineIssueWidth bounds transfers started per cycle per engine.
const engineIssueWidth = 4

// engineFootprint wraps the per-engine address bump allocator (the
// memories don't key on addresses, this just keeps traces readable).
const engineFootprint = 1 << 24

// Engine executes commands' transfers for one die.
type Engine struct {
	name  string
	die   int
	net   *noc.Network
	iface *noc.NodeInterface

	tracker  *chi.Tracker
	inflight sim.Table[*command] // each open transaction's command, by TxnID
	sendq    sim.FIFO[*noc.Flit]
	queue    sim.FIFO[*command] // issued by the orchestrator
	done     []*command         // finished transfers, drained by the orchestrator
	addrSeq  uint64

	// Counters, exposed as metrics.
	Issued, Completed, BytesMoved uint64
	PeakQueue                     int

	// memNodes maps a die index to its memory controller's node; set by
	// the builder once all memories exist.
	memNodes []noc.NodeID
}

// newEngine attaches an engine to its die ring station.
func newEngine(net *noc.Network, die int, st *noc.CrossStation) *Engine {
	e := &Engine{
		name:    fmt.Sprintf("d%d.serve", die),
		die:     die,
		net:     net,
		tracker: chi.NewTracker(engineOutstanding),
	}
	e.inflight.Reserve(engineOutstanding)
	node := net.NewNode(e.name)
	e.iface = net.Attach(node, st)
	net.AddDevice(e)
	return e
}

// Name implements noc.Device.
func (e *Engine) Name() string { return e.name }

// Node implements noc.NodeOwner: the engine sleeps on its interface's
// wake word.
func (e *Engine) Node() noc.NodeID { return e.iface.Node() }

// enqueue hands the engine a command whose dependencies are met. Called
// only from the orchestrator's tick. The command does not arrive
// through the fabric, so the engine is woken by hand.
func (e *Engine) enqueue(c *command) {
	e.iface.Wake()
	e.queue.Push(c)
	if e.queue.Len() > e.PeakQueue {
		e.PeakQueue = e.queue.Len()
	}
}

// finish closes the command of a transfer Settle retired.
func (e *Engine) finish(req *chi.Message) {
	c, _ := e.inflight.Delete(uint64(req.TxnID))
	e.done = append(e.done, c)
	e.Completed++
	e.BytesMoved += uint64(req.Bytes())
}

// Tick implements noc.Device: completions first (freeing table slots),
// then queued beats, then new transfers.
func (e *Engine) Tick(now sim.Cycle) {
	e.tracker.Settle(e.net, e.iface, nil, &e.sendq, e.finish)
	e.iface.SendAll(&e.sendq)
	for i := 0; i < engineIssueWidth; i++ {
		if e.queue.Len() == 0 || e.sendq.Len() > 0 || e.tracker.Full() {
			return
		}
		c := e.queue.Peek()
		op := chi.ReadNoSnp
		if c.write {
			op = chi.WriteNoSnp
		}
		addr := uint64(e.die+1)<<32 | (e.addrSeq*chi.LineSize)%engineFootprint
		e.addrSeq++
		m := chi.NewMsg(e.net, chi.Message{Op: op, Addr: addr, Requester: e.Node(), Size: int32(c.bytes)})
		if !e.tracker.Open(m) {
			return
		}
		e.queue.Pop()
		if !c.write {
			m.BeatsLeft = int32(m.Beats())
		}
		m.IssuedAt = uint64(now)
		e.inflight.Put(uint64(m.TxnID), c)
		e.Issued++
		e.sendq.Push(m.NewFlit(e.net, e.Node(), e.memNodes[c.target]))
		e.iface.SendAll(&e.sendq)
	}
}

// IdleUntil implements noc.IdleUntiler. The engine has no timers: it is
// idle when there is nothing to receive, nothing to send, and nothing it
// could issue — the command queue empty, or the transaction table full
// (only a completion, which arrives as an ejection, frees a slot). It
// then sleeps until an ejection or enqueue wakes it.
func (e *Engine) IdleUntil(now sim.Cycle) sim.Cycle {
	if e.iface.EjectLen() > 0 || e.sendq.Len() > 0 || (e.queue.Len() > 0 && !e.tracker.Full()) {
		return now
	}
	return noc.Never
}

// RegisterMetrics exposes the engine's counters and queue depths under
// "serving.<name>.*".
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "serving." + e.name
	reg.Counter(p+".issued", func() uint64 { return e.Issued })
	reg.Counter(p+".completed", func() uint64 { return e.Completed })
	reg.Counter(p+".bytes_moved", func() uint64 { return e.BytesMoved })
	reg.Series(p+".queue_depth", func() float64 { return float64(e.queue.Len()) })
	reg.Series(p+".outstanding", func() float64 { return float64(e.tracker.Outstanding()) })
}
