package noc

import (
	"math"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// RBRGL1Config sizes an intra-die ring bridge.
type RBRGL1Config struct {
	// InjectDepth/EjectDepth size the per-ring node-interface queues
	// (the bridge's data buffering).
	InjectDepth, EjectDepth int
	// ForwardPerCycle bounds how many flits each interface can move to
	// another ring per cycle (the internal crossbar bandwidth).
	ForwardPerCycle int
	// EscapeDepth is the reserved escape capacity used by the SWAP
	// deadlock-resolution mode. Section 4.4 embeds SWAP "in the
	// cross-ring bridge"; without it the orthogonal request/response
	// flows of the mesh-of-rings can form exactly the Figure 9 deadlock.
	EscapeDepth int
	// DeadlockThreshold is consecutive stalled-injection cycles before
	// the bridge enters deadlock-resolution mode.
	DeadlockThreshold int
	// EnableSwap turns the resolution on (off reproduces the deadlock
	// for the ablation).
	EnableSwap bool
}

// DefaultRBRGL1Config returns the configuration the SoC builders use.
func DefaultRBRGL1Config() RBRGL1Config {
	return RBRGL1Config{
		InjectDepth: 16, EjectDepth: 16,
		ForwardPerCycle:   4,
		EscapeDepth:       64,
		DeadlockThreshold: 48,
		EnableSwap:        true,
	}
}

// l1half is the per-interface state of an intra-die bridge.
type l1half struct {
	iface *NodeInterface
	// escape holds flits pulled out of the eject queue during DRM; it
	// drains ahead of the eject queue.
	escape          sim.FIFO[*Flit]
	drm             bool
	stalledCycles   int
	blockedCycles   int // eject full while arrivals keep deflecting
	lastInjectSeen  uint64
	lastDeflectSeen uint64
}

// RBRGL1 is the first-level ring bridge of Section 4.1.3: a "device" that
// resides at the intersection of two (or more) rings inside one die,
// buffering flits that change rings and regenerating their routing
// information. The mesh-of-rings AI die is woven out of these. Each
// interface carries the SWAP deadlock-resolution state of Section 4.4.
type RBRGL1 struct {
	name string
	net  *Network
	node NodeID
	cfg  RBRGL1Config

	halves []*l1half
	// dead latches the one-time buffer purge after FailBridge kills this
	// node; cleared again on repair.
	dead bool

	Forwarded   uint64
	SwapEntries uint64
	SwapRescues uint64
}

// NewRBRGL1 creates a bridge node and attaches it to each station in
// stations (each on a different ring).
func NewRBRGL1(net *Network, name string, cfg RBRGL1Config, stations ...*CrossStation) *RBRGL1 {
	if len(stations) < 2 {
		net.fail("RBRG-L1 %q needs at least 2 stations, has %d", name, len(stations))
	}
	b := &RBRGL1{name: name, net: net, cfg: cfg}
	b.node = net.NewNode(name)
	for _, st := range stations {
		ni := net.AttachQueued(b.node, st, cfg.InjectDepth, cfg.EjectDepth)
		b.halves = append(b.halves, &l1half{iface: ni})
	}
	net.AddDevice(b)
	return b
}

// Name implements Device.
func (b *RBRGL1) Name() string { return b.name }

// Node returns the bridge's node identity.
func (b *RBRGL1) Node() NodeID { return b.node }

// InDRM reports whether any interface is in deadlock-resolution mode.
func (b *RBRGL1) InDRM() bool {
	for _, h := range b.halves {
		if h.drm {
			return true
		}
	}
	return false
}

// Tick drains each interface's eject queue (escape buffer first) into
// the interface on the next ring along the flit's path, then runs
// deadlock detection/resolution per interface. A full outgoing inject
// queue stalls the head (and, transitively, fills the eject queue, whose
// fullness deflects ring flits — that is the bridge's backpressure).
func (b *RBRGL1) Tick(now sim.Cycle) {
	if b.net.NodeFailed(b.node) {
		if !b.dead {
			b.dead = true
			b.dropBuffers()
		}
		return // dead silicon: queues fill, arrivals deflect, watchdog reaps
	}
	b.dead = false
	for _, in := range b.halves {
		for moved := 0; moved < b.cfg.ForwardPerCycle; moved++ {
			var f *Flit
			fromEscape := in.escape.Len() > 0
			if fromEscape {
				f = in.escape.Peek()
			} else {
				f = in.iface.Peek()
			}
			if f == nil {
				break
			}
			out := b.net.forwardInterface(b.node, in.iface, f)
			if out == nil {
				// Every onward ring lost its route (failed bridges):
				// discard rather than wedge the whole forward pipeline
				// behind an undeliverable head.
				if fromEscape {
					in.escape.Pop()
				} else {
					in.iface.Recv()
				}
				b.net.dropFlit(f, &b.net.UnroutableDrops, in.iface.station.ring, trace.Reroute, b.name, "no forward route")
				continue
			}
			if !out.Send(f) {
				break
			}
			f.RingChanges++
			b.Forwarded++
			b.net.Trace(trace.BridgeHop, f.ID, b.name, "")
			if fromEscape {
				in.escape.Pop()
			} else {
				in.iface.Recv()
			}
		}
	}
	for _, h := range b.halves {
		b.runDRM(h)
	}
}

// IdleUntil implements IdleUntiler. The bridge has no timers, so it is
// either busy now or idle until an arrival wakes it: idle means Tick
// would find nothing to forward on any interface (escape buffer and
// eject queue empty) and runDRM would change nothing — nothing queued
// for injection and the inject/deflect watermarks current, so no stall
// or block counter moves; eject space free, so no deflection can happen
// unseen while it sleeps; not in DRM; the dead latch clear.
func (b *RBRGL1) IdleUntil(now sim.Cycle) sim.Cycle {
	if b.dead || b.net.NodeFailed(b.node) || (b.cfg.EnableSwap && b.cfg.DeadlockThreshold <= 0) {
		return now
	}
	for _, h := range b.halves {
		ni := h.iface
		if h.escape.Len()+ni.eject.Len()+ni.inject.Len()+ni.bypass.Len() > 0 ||
			h.drm || h.stalledCycles != 0 || h.blockedCycles != 0 ||
			h.lastInjectSeen != ni.Injected || h.lastDeflectSeen != ni.Deflected ||
			ni.freeEjectEntries() <= 0 {
			return now
		}
	}
	return Never
}

// dropBuffers discards everything the bridge holds — escape buffers and
// its interface queues — when the node is killed. DRM state resets so a
// later repair starts clean.
func (b *RBRGL1) dropBuffers() {
	for _, h := range b.halves {
		for h.escape.Len() > 0 {
			b.net.dropFlit(h.escape.Pop(), &b.net.FaultDrops, h.iface.station.ring, trace.Fault, b.name, "lost in dead bridge")
		}
		h.drm = false
		h.stalledCycles = 0
		h.blockedCycles = 0
		h.iface.swapMode = false
		b.net.dropInterfaceQueues(h.iface)
	}
}

// BufferedFlits implements FlitBufferer: flits held in escape buffers
// (the interface queues are counted by the network itself).
func (b *RBRGL1) BufferedFlits() int {
	total := 0
	for _, h := range b.halves {
		total += h.escape.Len()
	}
	return total
}

// runDRM mirrors the RBRG-L2 SWAP logic (Section 4.4) at an intra-die
// intersection: when injection has stalled past the threshold with the
// eject queue full, flits are pulled into the escape buffer so
// circulating flits can eject and the inject head can swap onto the ring.
func (b *RBRGL1) runDRM(h *l1half) {
	ni := h.iface
	if ni.InjectLen() > 0 && ni.Injected == h.lastInjectSeen {
		h.stalledCycles++
	} else {
		h.stalledCycles = 0
	}
	h.lastInjectSeen = ni.Injected
	free := ni.freeEjectEntries()
	if free == 0 && ni.Deflected > h.lastDeflectSeen {
		h.blockedCycles++
	} else if free > 0 {
		h.blockedCycles = 0
	}
	h.lastDeflectSeen = ni.Deflected

	if !b.cfg.EnableSwap {
		return
	}
	if !h.drm {
		stuck := h.stalledCycles >= b.cfg.DeadlockThreshold && free == 0
		blocked := h.blockedCycles >= b.cfg.DeadlockThreshold
		if stuck || blocked {
			h.drm = true
			b.SwapEntries++
			b.net.Trace(trace.DRMEnter, 0, b.name, "l1")
		}
		if !h.drm {
			return
		}
	}
	if h.escape.Len() < b.cfg.EscapeDepth {
		if f := ni.Recv(); f != nil {
			h.escape.Push(f)
			b.SwapRescues++
		}
	}
	if h.escape.Len() == 0 && h.stalledCycles == 0 && h.blockedCycles == 0 {
		h.drm = false
		b.net.Trace(trace.DRMExit, 0, b.name, "l1")
	}
	ni.swapMode = h.drm
}

// forwardInterface picks which of a bridge node's interfaces a transit
// flit should continue on: the ring getting it closest to (ideally
// holding) its destination, never the ring it arrived from. The
// decision is a precomputed table lookup (see rebuildForwardTables);
// computeForward holds the actual policy.
func (n *Network) forwardInterface(node NodeID, arrived *NodeInterface, f *Flit) *NodeInterface {
	info := n.nodes[node]
	if slot := info.fwd[arrived.nodeSlot][f.Dst]; slot >= 0 {
		return info.ifaces[slot]
	}
	return nil
}

// computeForward derives one forwarding-table entry from the freshly
// rebuilt routing tables.
func (n *Network) computeForward(info *nodeInfo, arrived *NodeInterface, dst NodeID) *NodeInterface {
	var best *NodeInterface
	bestDist := math.MaxInt32
	for _, ni := range info.ifaces {
		if ni == arrived {
			continue
		}
		dstRing, local, err := n.routeFrom(ni.station.ring.id, dst)
		if err != nil {
			continue
		}
		d := 0
		if !local {
			d = n.ringDist[ni.station.ring.id][dstRing]
		}
		if d < bestDist || (d == bestDist && best != nil && ni.station.ring.id < best.station.ring.id) {
			best, bestDist = ni, d
		}
	}
	return best
}

// RBRGL2Config sizes an inter-die bridge.
type RBRGL2Config struct {
	// InjectDepth/EjectDepth size the per-side node-interface queues.
	InjectDepth, EjectDepth int
	// TxDepth/RxDepth size the per-direction link buffers.
	TxDepth, RxDepth int
	// ReserveDepth is the DRM escape capacity ("reserved Tx buffers").
	ReserveDepth int
	// LinkLatency is the die-to-die wire pipeline depth in cycles.
	LinkLatency int
	// LinkWidth is flits per cycle per direction over the D2D link.
	LinkWidth int
	// DeadlockThreshold is how many consecutive stalled-injection cycles
	// trigger DRM (Section 4.4).
	DeadlockThreshold int
	// EnableSwap turns the SWAP resolution on; off reproduces the
	// unrecoverable cross-ring deadlock for the ablation.
	EnableSwap bool
}

// DefaultRBRGL2Config returns the configuration used by the SoC builders.
func DefaultRBRGL2Config() RBRGL2Config {
	return RBRGL2Config{
		InjectDepth:       8,
		EjectDepth:        8,
		TxDepth:           16,
		RxDepth:           16,
		ReserveDepth:      4096,
		LinkLatency:       8,
		LinkWidth:         2,
		DeadlockThreshold: 64,
		EnableSwap:        true,
	}
}

// pipeFlit is a flit in flight on the die-to-die link. Escape flits
// travel against the reserved escape-lane credit and land on the far
// side's priority-inject lane, so the deadlock-resolution path never
// depends on the congested normal buffers.
type pipeFlit struct {
	f       *Flit
	arrives sim.Cycle
	escape  bool
}

// credPulse is a batch of flow-control credits travelling back over the
// link: the receiver returns a credit when it frees the matching buffer
// entry, and the credit takes the same LinkLatency wire trip home. Same-
// cycle returns coalesce into one pulse, so the queue holds at most one
// entry per cycle in flight.
type credPulse struct {
	arrives   sim.Cycle
	norm, esc int32
}

// l2half is one side of an inter-die bridge. Each half owns its own
// buffers plus the link traffic committed towards it (pipe, credIn); what
// it launches is appended to the far half's pipe and credIn, stamped with
// an arrival at least one cycle away, so within a cycle neither half
// consumes what the other has just put on the wire.
type l2half struct {
	iface *NodeInterface
	tx    sim.FIFO[*Flit]
	// reserve is the escape buffer activated in deadlock-resolution
	// mode; it drains ahead of tx.
	reserve sim.FIFO[*Flit]
	pipe    sim.FIFO[pipeFlit] // in flight towards THIS half
	rx      sim.FIFO[*Flit]

	// Launch windows (credit-based flow control). txCred covers the
	// normal lane: sized to the far rx buffer plus the bandwidth-delay
	// product so an uncongested link sustains full LinkWidth throughput
	// across the round trip. escCred covers the escape lane (the far
	// bypass queue plus wire slack).
	txCred, escCred int
	credIn          sim.FIFO[credPulse] // credit returns in flight towards this half

	// dead latches the one-time buffer purge after FailBridge kills the
	// bridge; cleared on the first healthy tick.
	dead bool

	drm            bool
	stalledCycles  int
	lastInjectSeen uint64

	// per-half statistics, summed by the bridge accessors
	transferred uint64 // link arrivals landed at this half
	swapEntries uint64
	swapRescues uint64
}

// RBRGL2 is the second-level ring bridge of Sections 4.1.3 and 4.4: it
// connects rings on different dies through a parallel-IO link, provides
// credit-based flow control with latency-delayed credit return, detects
// cross-ring deadlock and breaks it with the SWAP mechanism.
type RBRGL2 struct {
	name string
	net  *Network
	node NodeID
	cfg  RBRGL2Config
	half [2]l2half
}

// txWindow is the normal-lane credit pool per direction: the far rx
// buffer plus twice the link's bandwidth-delay product (flit trip out,
// credit trip back), so an uncongested link never stalls on credits.
func (cfg *RBRGL2Config) txWindow() int {
	return cfg.RxDepth + 2*cfg.LinkWidth*cfg.LinkLatency
}

// escWindow is the escape-lane credit pool per direction: the far
// priority-inject (bypass) queue plus wire slack. Escape flits that
// arrive to a full bypass queue wait at the pipe head, so the window
// bounds outstanding escapes without ever overrunning the queue.
func (cfg *RBRGL2Config) escWindow() int {
	return bypassDepth + 2*cfg.LinkWidth*cfg.LinkLatency
}

// NewRBRGL2 creates an inter-die bridge spanning the two stations (which
// must be on different rings, conventionally on different dies). The wire
// is at least one cycle long: a LinkLatency below 1 is taken as 1, the
// shortest trip on which the half that ticks second cannot consume what
// the first launched in the same cycle.
func NewRBRGL2(net *Network, name string, cfg RBRGL2Config, a, b *CrossStation) *RBRGL2 {
	if cfg.LinkLatency < 1 {
		cfg.LinkLatency = 1
	}
	br := &RBRGL2{name: name, net: net, cfg: cfg}
	br.node = net.NewNode(name)
	br.half[0].iface = net.AttachQueued(br.node, a, cfg.InjectDepth, cfg.EjectDepth)
	br.half[1].iface = net.AttachQueued(br.node, b, cfg.InjectDepth, cfg.EjectDepth)
	for side := 0; side < 2; side++ {
		h := &br.half[side]
		h.tx = sim.NewFIFO[*Flit](cfg.TxDepth)
		h.rx = sim.NewFIFO[*Flit](cfg.RxDepth)
		h.pipe = sim.NewFIFO[pipeFlit](cfg.txWindow() + cfg.escWindow())
		h.txCred = cfg.txWindow()
		h.escCred = cfg.escWindow()
	}
	net.AddDevice(br)
	return br
}

// Transferred returns the flits moved die-to-die (both directions).
func (b *RBRGL2) Transferred() uint64 {
	return b.half[0].transferred + b.half[1].transferred
}

// SwapEntries returns how many times either half entered DRM.
func (b *RBRGL2) SwapEntries() uint64 {
	return b.half[0].swapEntries + b.half[1].swapEntries
}

// SwapRescues returns the flits moved to the escape buffers.
func (b *RBRGL2) SwapRescues() uint64 {
	return b.half[0].swapRescues + b.half[1].swapRescues
}

// Name implements Device.
func (b *RBRGL2) Name() string { return b.name }

// Node returns the bridge's node identity.
func (b *RBRGL2) Node() NodeID { return b.node }

// InDRM reports whether either side is currently in deadlock-resolution
// mode.
func (b *RBRGL2) InDRM() bool { return b.half[0].drm || b.half[1].drm }

// dropBuffers discards everything the bridge holds — tx/reserve/pipe/rx
// on both sides plus its interface queues — when the node is killed. DRM
// state and the credit windows reset so a later repair starts clean.
func (b *RBRGL2) dropBuffers() {
	for side := 0; side < 2; side++ {
		h := &b.half[side]
		r := h.iface.station.ring
		for _, q := range []*sim.FIFO[*Flit]{&h.tx, &h.reserve} {
			for q.Len() > 0 {
				b.net.dropFlit(q.Pop(), &b.net.FaultDrops, r, trace.Fault, b.name, "lost in dead bridge")
			}
		}
		for h.pipe.Len() > 0 {
			b.net.dropFlit(h.pipe.Pop().f, &b.net.FaultDrops, r, trace.Fault, b.name, "lost on dead link")
		}
		for h.rx.Len() > 0 {
			b.net.dropFlit(h.rx.Pop(), &b.net.FaultDrops, r, trace.Fault, b.name, "lost in dead bridge")
		}
		h.credIn.Clear()
		h.txCred = b.cfg.txWindow()
		h.escCred = b.cfg.escWindow()
		h.drm = false
		h.stalledCycles = 0
		h.iface.swapMode = false
		b.net.dropInterfaceQueues(h.iface)
	}
}

// BufferedFlits implements FlitBufferer: flits in tx/reserve/pipe/rx on
// both sides (the interface queues are counted by the network itself).
func (b *RBRGL2) BufferedFlits() int {
	total := 0
	for side := 0; side < 2; side++ {
		h := &b.half[side]
		total += h.tx.Len() + h.reserve.Len() + h.pipe.Len() + h.rx.Len()
	}
	return total
}

// Tick advances both directions of the bridge by one cycle, side 0 then
// side 1.
func (b *RBRGL2) Tick(now sim.Cycle) {
	if b.net.NodeFailed(b.node) {
		if !b.half[0].dead {
			b.half[0].dead, b.half[1].dead = true, true
			b.dropBuffers()
		}
		return // dead silicon: queues fill, arrivals deflect, watchdog reaps
	}
	b.tickHalf(0, now)
	b.tickHalf(1, now)
}

// IdleUntil implements IdleUntiler. A failed bridge is never idle — its
// Tick is the one that purges the buffers, and FailBridge wakes it for
// that. A half is idle when tickHalf would do nothing but take landed
// credit pulses: every buffer it drains and all three interface queues
// empty, the dead latch clear, and runDRM at rest (not in DRM, no stall
// count, inject watermark current, eject space free so DRM cannot be
// entered). With nothing to launch, a window restored late launches
// exactly what one restored on time would, so a credit pulse wakes
// nobody: the next Tick, or a checkpoint, takes it (takeCredits). The
// bridge sleeps until the first flit on the wire towards either half
// lands.
func (b *RBRGL2) IdleUntil(now sim.Cycle) sim.Cycle {
	if b.net.NodeFailed(b.node) {
		return now
	}
	w := Never
	for side := range b.half {
		h := &b.half[side]
		ni := h.iface
		if h.dead || h.drm || h.stalledCycles != 0 || h.lastInjectSeen != ni.Injected ||
			h.tx.Len()+h.reserve.Len()+h.rx.Len() > 0 ||
			ni.eject.Len()+ni.inject.Len()+ni.bypass.Len() > 0 || ni.freeEjectEntries() <= 0 {
			return now
		}
		if h.pipe.Len() > 0 && h.pipe.Peek().arrives < w {
			w = h.pipe.Peek().arrives
		}
	}
	if w < now {
		return now
	}
	return w
}

// tickHalf advances one side of the bridge by one cycle. It touches the
// far side only to append what it launches to that side's pipe and credIn.
func (b *RBRGL2) tickHalf(side int, now sim.Cycle) {
	h, far := &b.half[side], &b.half[1-side]
	h.dead = false
	// 0. Credit pulses landed by this cycle restore the launch windows.
	h.takeCredits(now + 1)
	// 1. Link arrivals: normal flits land in this side's rx buffer;
	//    escape flits land straight on this interface's priority lane,
	//    returning their escape credit the moment they leave the wire.
	for h.pipe.Len() > 0 && h.pipe.Peek().arrives <= now {
		pf := h.pipe.Peek()
		if pf.escape {
			if !h.iface.SendPriority(pf.f) {
				break // bypass full: retry next cycle
			}
			b.returnCredit(far, now, 0, 1)
		} else {
			if h.rx.Len() >= b.cfg.RxDepth {
				break
			}
			h.rx.Push(pf.f)
		}
		h.pipe.Pop()
		h.transferred++
	}
	// 2. Launch onto the link against the credit windows, escape lane
	//    first.
	lat := sim.Cycle(b.cfg.LinkLatency)
	for launched := 0; launched < b.cfg.LinkWidth; launched++ {
		if h.reserve.Len() > 0 && h.escCred > 0 {
			far.pipe.Push(pipeFlit{f: h.reserve.Pop(), arrives: now + lat, escape: true})
			h.escCred--
		} else if h.tx.Len() > 0 && h.txCred > 0 {
			far.pipe.Push(pipeFlit{f: h.tx.Pop(), arrives: now + lat})
			h.txCred--
		} else {
			break
		}
	}
	// 3. Drain ring ejections into tx.
	for h.tx.Len() < b.cfg.TxDepth {
		f := h.iface.Recv()
		if f == nil {
			break
		}
		f.RingChanges++
		h.tx.Push(f)
	}
	// 4. Re-inject rx arrivals into the local ring; each freed entry
	//    returns a normal-lane credit to the sender.
	for h.rx.Len() > 0 && h.iface.Send(h.rx.Peek()) {
		h.rx.Pop()
		b.returnCredit(far, now, 1, 0)
	}
	// 5. Deadlock detection & SWAP resolution.
	b.runDRM(h)
}

// takeCredits restores the launch windows from every credit pulse that
// lands before end. A half that slept through a landing takes the pulse
// at its next tick; a checkpoint takes those before its cycle.
func (h *l2half) takeCredits(end sim.Cycle) {
	for h.credIn.Len() > 0 && h.credIn.Peek().arrives < end {
		c := h.credIn.Pop()
		h.txCred += int(c.norm)
		h.escCred += int(c.esc)
	}
}

// returnCredit puts a credit return on the wire towards half to, arriving
// after the wire trip. Same-cycle returns coalesce: only the opposite half
// appends to to.credIn and its arrival stamp is unique per cycle.
func (b *RBRGL2) returnCredit(to *l2half, now sim.Cycle, norm, esc int32) {
	c := credPulse{arrives: now + sim.Cycle(b.cfg.LinkLatency), norm: norm, esc: esc}
	if k := to.credIn.Len(); k > 0 && to.credIn.At(k-1).arrives == c.arrives {
		last := to.credIn.PopTail()
		c.norm += last.norm
		c.esc += last.esc
	}
	to.credIn.Push(c)
}

// runDRM implements Section 4.4. A side is considered deadlocked when its
// injection has made no progress for DeadlockThreshold cycles while the
// inject path is backed up and both the eject queue and tx buffer are
// full — the signature that every resource on the cycle is held by
// cross-ring flits. In DRM a flit from the eject queue is pushed to the
// reserved escape buffer, freeing an eject entry so a circulating flit
// can eject and, in the same station cycle, the inject-queue head takes
// its slot (the "swap").
func (b *RBRGL2) runDRM(h *l2half) {
	ni := h.iface
	if ni.InjectLen() > 0 && ni.Injected == h.lastInjectSeen {
		h.stalledCycles++
	} else {
		h.stalledCycles = 0
	}
	h.lastInjectSeen = ni.Injected

	if !b.cfg.EnableSwap {
		return
	}
	if !h.drm {
		if h.stalledCycles >= b.cfg.DeadlockThreshold &&
			ni.EjectLen() == ni.eject.Cap()-len(ni.reserved) &&
			h.tx.Len() >= b.cfg.TxDepth {
			h.drm = true
			h.swapEntries++
			b.net.Trace(trace.DRMEnter, 0, b.name, "l2")
		}
		if !h.drm {
			return
		}
	}
	// Resolution: move one eject-queue flit per cycle into the escape
	// buffer while capacity lasts.
	if h.reserve.Len() < b.cfg.ReserveDepth {
		if f := ni.Recv(); f != nil {
			f.RingChanges++
			h.reserve.Push(f)
			h.swapRescues++
		}
	}
	// Recovery: escape buffer drained below threshold and injection
	// moving again.
	if h.reserve.Len() == 0 && h.stalledCycles == 0 {
		h.drm = false
		b.net.Trace(trace.DRMExit, 0, b.name, "l2")
	}
	// While in DRM the cross station swaps: every ejection immediately
	// hands its freed slot to the inject-queue head.
	ni.swapMode = h.drm
}
