// Package coherence implements the MESI directory protocol the Server-CPU
// runs over the bufferless multi-ring NoC (Sections 3.2.1 and 4.2): a
// split L3 with per-cluster tag directories and separate data slices,
// cache-to-cache transfers for M/E lines, and DDR fills on misses. It is
// the engine behind the Table 5 latency experiment.
package coherence

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// State is a MESI line state as tracked by the directory.
type State int

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	return [...]string{"I", "S", "E", "M"}[s]
}

// line is one directory entry.
type line struct {
	state State
	// owner is the core agent holding an M/E copy.
	owner noc.NodeID
}

// job is one flit held back for a lookup or array latency.
type job struct {
	ready sim.Cycle
	f     *noc.Flit
}

// pump is the deferred-send path the three coherence devices share: a
// flit waits out its latency in jobs (in ready order — each device has
// one constant latency), moves to the outbox when due, and the outbox
// drains into the interface until it refuses.
type pump struct {
	jobs  sim.FIFO[job]
	outbx sim.FIFO[*noc.Flit]
}

// send queues f for injection at iface from cycle ready on.
func (p *pump) send(ready sim.Cycle, f *noc.Flit) { p.jobs.Push(job{ready: ready, f: f}) }

// tick releases the due jobs and injects what iface accepts.
func (p *pump) tick(iface *noc.NodeInterface, now sim.Cycle) {
	for p.jobs.Len() > 0 && p.jobs.Peek().ready <= now {
		p.outbx.Push(p.jobs.Pop().f)
	}
	iface.SendAll(&p.outbx)
}

// idleUntil is the idle contract the three devices share: with nothing
// ejected at iface and nothing in the outbox, a tick only releases the
// front job once it is due, so the device sleeps until then, and forever
// with none.
func (p *pump) idleUntil(iface *noc.NodeInterface, now sim.Cycle) sim.Cycle {
	if iface.EjectLen() > 0 || p.outbx.Len() > 0 {
		return now
	}
	if p.jobs.Len() == 0 {
		return noc.Never
	}
	if r := p.jobs.Peek().ready; r > now {
		return r
	}
	return now
}

// Directory is an L3 tag cache + home agent for the addresses it homes.
// Four cores share one in the Server-CPU; its tag store answers "where is
// the line" without touching data (that is why the split design lowers
// snoop latency).
type Directory struct {
	noc.Port

	// LookupCycles is the tag-array access latency.
	LookupCycles int
	// dataSlice is the L3 data slice holding this home's clean data.
	dataSlice noc.NodeID
	// memory is the DDR controller that fills misses.
	memory noc.NodeID

	lines map[uint64]*line
	out   pump

	// Statistics
	Hits, Misses, Snoops uint64
}

// NewDirectory attaches a directory to a station. dataSlice and memory
// are wired later (WireTo) because node IDs may not exist yet during
// construction.
func NewDirectory(net *noc.Network, name string, lookupCycles int, st *noc.CrossStation) *Directory {
	d := &Directory{
		LookupCycles: lookupCycles,
		lines:        make(map[uint64]*line),
	}
	d.Port = net.Plug(d, name, st)
	return d
}

// WireTo sets the directory's data slice and memory controller targets.
func (d *Directory) WireTo(dataSlice, memory noc.NodeID) {
	d.dataSlice = dataSlice
	d.memory = memory
}

// SetLine primes a directory entry — the Table 5 experiment's "Core-0
// changes 3MB data into modified/exclusive/shared status" step without
// simulating the warm-up traffic.
func (d *Directory) SetLine(addr uint64, s State, owner noc.NodeID) {
	d.lines[addr] = &line{state: s, owner: owner}
}

// LineState returns the directory state of addr.
func (d *Directory) LineState(addr uint64) State {
	if l, ok := d.lines[addr]; ok {
		return l.state
	}
	return Invalid
}

// Tick implements noc.Device.
func (d *Directory) Tick(now sim.Cycle) {
	for {
		f := d.Iface.Recv()
		if f == nil {
			break
		}
		d.handle(f, now)
		d.Net.ReleaseFlit(f)
	}
	d.out.tick(d.Iface, now) // releases the sends whose tag lookup has completed
}

// IdleUntil implements noc.IdleUntiler.
func (d *Directory) IdleUntil(now sim.Cycle) sim.Cycle {
	return d.out.idleUntil(d.Iface, now)
}

// handle serves one request. Anything else — no live run sends it, a
// patched checkpoint can — is dropped.
func (d *Directory) handle(f *noc.Flit, now sim.Cycle) {
	m := chi.MsgOf(f)
	if m == nil {
		panic(fmt.Sprintf("coherence: %s got non-CHI flit", d.Name()))
	}
	ready := now + sim.Cycle(d.LookupCycles)
	switch m.Op {
	case chi.ReadShared, chi.ReadUnique:
		d.read(m, ready)
	case chi.WriteBackFull, chi.WriteUnique:
		d.write(m, ready)
	}
}

// read resolves a coherent read: M/E lines are snooped out of their owner
// (cache-to-cache), S lines come from the L3 data slice, misses fill from
// memory.
func (d *Directory) read(m *chi.Message, ready sim.Cycle) {
	l, present := d.lines[m.Addr]
	exclusive := m.Op == chi.ReadUnique
	switch {
	case present && (l.state == Modified || l.state == Exclusive) && l.owner != m.Requester:
		// Cache-to-cache: snoop the owner, who sends data directly to
		// the requester (the low-latency path the split L3 tag enables).
		d.Snoops++
		d.Hits++
		op := chi.SnpShared
		if exclusive {
			op = chi.SnpUnique
		}
		snp := &chi.Message{TxnID: m.TxnID, Op: op, Addr: m.Addr, Requester: m.Requester}
		d.out.send(ready, snp.NewFlit(d.Net, d.Node(), l.owner))
		if exclusive {
			l.state, l.owner = Exclusive, m.Requester
		} else {
			l.state = Shared
		}
	case present && l.state != Invalid:
		// Shared (or requester re-reading its own line): serve from the
		// L3 data slice.
		d.Hits++
		get := &chi.Message{TxnID: m.TxnID, Op: chi.ReadNoSnp, Addr: m.Addr, Requester: m.Requester}
		d.out.send(ready, get.NewFlit(d.Net, d.Node(), d.dataSlice))
		if exclusive {
			l.state, l.owner = Exclusive, m.Requester
		}
	default:
		// Miss: fill from DDR; install as E at the requester.
		d.Misses++
		get := &chi.Message{TxnID: m.TxnID, Op: chi.ReadNoSnp, Addr: m.Addr, Requester: m.Requester}
		d.out.send(ready, get.NewFlit(d.Net, d.Node(), d.memory))
		d.lines[m.Addr] = &line{state: Exclusive, owner: m.Requester}
	}
}

// write handles dirty evictions and full-line coherent writes: data goes
// to the L3 data slice, the requester gets Comp, the directory state
// updates.
func (d *Directory) write(m *chi.Message, ready sim.Cycle) {
	put := &chi.Message{TxnID: m.TxnID, Op: chi.WriteNoSnp, Addr: m.Addr, Requester: d.Node()}
	d.out.send(ready, put.NewFlit(d.Net, d.Node(), d.dataSlice))
	comp := &chi.Message{TxnID: m.TxnID, Op: chi.Comp, Addr: m.Addr, Requester: m.Requester}
	d.out.send(ready, comp.NewFlit(d.Net, d.Node(), m.Requester))
	if m.Op == chi.WriteBackFull {
		d.lines[m.Addr] = &line{state: Shared}
	} else {
		d.lines[m.Addr] = &line{state: Modified, owner: m.Requester}
	}
	d.Hits++
}

// DataSlice is an L3 data slice: high-capacity storage that answers the
// directory's data fetch/fill requests. Pure data — no coherence logic —
// which is exactly the paper's tag/data split.
type DataSlice struct {
	noc.Port

	// AccessCycles is the SRAM array latency.
	AccessCycles int

	out pump

	Reads, Fills uint64
}

// NewDataSlice attaches a data slice to a station.
func NewDataSlice(net *noc.Network, name string, accessCycles int, st *noc.CrossStation) *DataSlice {
	s := &DataSlice{AccessCycles: accessCycles}
	s.Port = net.Plug(s, name, st)
	return s
}

// Tick implements noc.Device.
func (s *DataSlice) Tick(now sim.Cycle) {
	for {
		f := s.Iface.Recv()
		if f == nil {
			break
		}
		m := chi.MsgOf(f)
		ready := now + sim.Cycle(s.AccessCycles)
		switch m.Op {
		case chi.ReadNoSnp:
			s.Reads++
			rsp := &chi.Message{TxnID: m.TxnID, Op: chi.CompData, Addr: m.Addr, Requester: m.Requester}
			s.out.send(ready, rsp.NewFlit(s.Net, s.Node(), m.Requester))
		case chi.WriteNoSnp:
			// Fill from a writeback; no reply needed (directory already
			// acknowledged the requester).
			s.Fills++
		} // anything else: no live run sends it, a patched checkpoint can
		s.Net.ReleaseFlit(f)
	}
	s.out.tick(s.Iface, now)
}

// IdleUntil implements noc.IdleUntiler.
func (s *DataSlice) IdleUntil(now sim.Cycle) sim.Cycle {
	return s.out.idleUntil(s.Iface, now)
}

// CoreAgent is a CPU core's coherence port: it issues ReadShared /
// ReadUnique / WriteUnique transactions towards a home directory, answers
// snoops with direct cache-to-cache data, and reports per-transaction
// round-trip latency.
type CoreAgent struct {
	noc.Port

	// SnoopCycles is the local array access before answering a snoop.
	SnoopCycles int

	tracker *chi.Tracker
	homeOf  func(addr uint64) noc.NodeID

	queue  sim.FIFO[*chi.Message] // requests not yet issued
	issued sim.Table[sim.Cycle]   // issue cycle of each open transaction, by TxnID
	out    pump

	// OnComplete is called with each finished transaction's round-trip
	// latency in cycles.
	OnComplete func(m *chi.Message, latency uint64)

	Completed    uint64
	SnoopsServed uint64
}

// NewCoreAgent attaches a core agent to a station. homeOf maps an address
// to its home directory's node.
func NewCoreAgent(net *noc.Network, name string, snoopCycles int, outstanding int,
	homeOf func(addr uint64) noc.NodeID, st *noc.CrossStation) *CoreAgent {
	a := &CoreAgent{
		SnoopCycles: snoopCycles,
		tracker:     chi.NewTracker(outstanding),
		homeOf:      homeOf,
	}
	a.issued.Reserve(outstanding)
	a.Port = net.Plug(a, name, st)
	return a
}

// request queues one coherent request and wakes the agent, which may be
// asleep with an empty queue (see IdleUntil).
func (a *CoreAgent) request(op chi.Opcode, addr uint64) {
	a.queue.Push(&chi.Message{Op: op, Addr: addr, Requester: a.Node()})
	a.Iface.Wake()
}

// Read enqueues a coherent read of addr.
func (a *CoreAgent) Read(addr uint64) { a.request(chi.ReadShared, addr) }

// ReadOwned enqueues a read-for-ownership of addr.
func (a *CoreAgent) ReadOwned(addr uint64) { a.request(chi.ReadUnique, addr) }

// Write enqueues a coherent full-line write of addr.
func (a *CoreAgent) Write(addr uint64) { a.request(chi.WriteUnique, addr) }

// WriteBack enqueues a dirty-line eviction of addr: the line's data
// returns to the L3 data slice and the directory demotes it to Shared.
func (a *CoreAgent) WriteBack(addr uint64) { a.request(chi.WriteBackFull, addr) }

// IdleUntil implements noc.IdleUntiler: besides the shared conditions the
// agent must have no request it could issue — an empty queue, or a full
// transaction table, which only a completion (an ejection) can open.
func (a *CoreAgent) IdleUntil(now sim.Cycle) sim.Cycle {
	if a.queue.Len() > 0 && !a.tracker.Full() {
		return now
	}
	return a.out.idleUntil(a.Iface, now)
}

// Tick implements noc.Device.
func (a *CoreAgent) Tick(now sim.Cycle) {
	// Issue queued requests while transaction buffers allow.
	for a.queue.Len() > 0 && !a.tracker.Full() {
		m := a.queue.Peek()
		if !a.tracker.Open(m) {
			break
		}
		f := m.NewFlit(a.Net, a.Node(), a.homeOf(m.Addr))
		if !a.Iface.Send(f) {
			a.Net.RecycleRefused(f)
			a.tracker.Complete(m.TxnID)
			break
		}
		a.issued.Put(uint64(m.TxnID), now)
		a.queue.Pop()
	}
	// Handle arrivals: completions and snoops.
	for {
		f := a.Iface.Recv()
		if f == nil {
			break
		}
		m := chi.MsgOf(f)
		switch m.Op {
		case chi.CompData, chi.Comp, chi.SnpRespData:
			req := a.tracker.Complete(m.TxnID)
			if req == nil {
				break // no live run completes a transaction twice, a patched checkpoint can
			}
			start, _ := a.issued.Delete(uint64(m.TxnID))
			a.Completed++
			if a.OnComplete != nil {
				a.OnComplete(req, uint64(now-start))
			}
		case chi.SnpShared, chi.SnpUnique:
			// Cache-to-cache: answer straight to the requester after the
			// local array access.
			a.SnoopsServed++
			rsp := &chi.Message{TxnID: m.TxnID, Op: chi.SnpRespData, Addr: m.Addr, Requester: m.Requester}
			a.out.send(now+sim.Cycle(a.SnoopCycles), rsp.NewFlit(a.Net, a.Node(), m.Requester))
		} // anything else: no live run sends it, a patched checkpoint can
		a.Net.ReleaseFlit(f)
	}
	a.out.tick(a.Iface, now)
}
