// Checkpoint support for the serving workload. The orchestrator,
// registered last, walks the batches in flight with their command DAGs
// and every place a command waits — the engines' queues, transaction
// tables and done lists and its own compute list — as a (batch, index)
// reference. The DAG free-list is host-side: a load starts it empty.
package serving

import (
	"encoding/json"
	"fmt"
	"slices"

	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// SnapState implements noc.StateSnapshotter. The commands the engine
// holds travel with the orchestrator, which owns their batches.
func (e *Engine) SnapState(s *noc.Snap) {
	c := s.Codec
	e.tracker.SnapState(s)
	s.Flits(&e.sendq, 1<<20)
	c.U64(&e.addrSeq)
	c.U64(&e.Issued)
	c.U64(&e.Completed)
	c.U64(&e.BytesMoved)
}

// SnapState implements noc.StateSnapshotter. It matches the parameters
// that shape serving state — die count, batch size, watermarks, layer
// list, arrival rates — since the network name carries the load point's
// index, not its load. The stall count travels settled through the clock
// and a save leaves the live count alone. An overloaded run piles up
// pending requests without limit; a load takes what the bytes hold.
func (o *Orchestrator) SnapState(s *noc.Snap) {
	c, a := s.Codec, o.arr
	c.MatchString(fmt.Sprintf("%d dies, batches of %d, watermarks %d-%d, %d+%v arrivals a cycle, bursty %v (%v/%v)",
		len(o.engines), o.spec.Batch, o.spec.LowWatermark, o.spec.HighWatermark,
		a.base, a.frac, a.bursty, a.pLeaveOn, a.pLeaveOff), 256, "serving shape")
	layers, _ := json.Marshal(o.spec.Layers) // layer specs always marshal
	c.MatchString(string(layers), 1<<20, "layer list")
	a.rng.SnapState(c)
	c.Bool(&a.on)
	sim.Uint(c, &a.cycle)
	sim.Uint(c, &a.at)
	sim.Int(c, &a.n)
	if a.n < 0 || a.n > a.base+1 {
		c.Fail("%d arrivals drawn for one cycle", a.n)
	}
	o.routeRNG.SnapState(c)
	c.U64(&o.Admitted)
	c.U64(&o.Completed)
	stalls := o.StallCycles()
	c.U64(&stalls)
	if c.Loading() {
		o.stallCycles, o.lastTick = stalls, sim.Cycle(o.net.Ticks())
	}
	c.Bool(&o.filling)
	c.Bool(&o.stalled)
	sim.Int(c, &o.nextHome)
	if o.nextHome < 0 || o.nextHome >= len(o.engines) {
		c.Fail("next batch home %d outside %d dies", o.nextHome, len(o.engines))
	}
	c.U64(&o.streamDigest)
	o.Sketch.SnapState(c)
	sim.WalkFIFO(c, &o.pending, noc.MaxCheckpointBytes, func(r *request) { sim.Uint(c, &r.arrival) })

	sim.Slice(c, &o.live, o.spec.HighWatermark)
	cmds := 0
	for i := range o.live {
		if c.Loading() {
			o.live[i] = new(batch)
		}
		o.walkBatch(c, o.live[i])
		cmds += len(o.live[i].cmds)
	}
	placed := map[*command]bool{} // loading: the commands waiting somewhere
	ref := func(p **command) { o.walkRef(c, p, placed) }
	refs := func(l *[]*command) {
		sim.Slice(c, l, cmds)
		for i := range *l {
			ref(&(*l)[i])
		}
	}
	for _, e := range o.engines {
		sim.WalkFIFO(c, &e.queue, cmds, ref)
		sim.WalkTable(c, &e.inflight, engineOutstanding, func(id *uint64, p **command) {
			c.Key32(id)
			ref(p)
			if c.Loading() && e.tracker.Lookup(uint32(*id)) == nil {
				c.Fail("%s transfer %d is not an open transaction", e.Name(), *id)
			}
		})
		if e.inflight.Len() != e.tracker.Outstanding() {
			c.Fail("%s has %d transfers for %d open transactions", e.Name(), e.inflight.Len(), e.tracker.Outstanding())
		}
		refs(&e.done)
	}
	refs(&o.computing)
	if c.Loading() && c.Err() == nil {
		o.checkLoaded(c, placed)
	}
}

// walkBatch walks one batch in flight: its riders' arrival cycles, its
// command DAG and its count of unfinished commands.
func (o *Orchestrator) walkBatch(c *sim.Codec, b *batch) {
	sim.Slice(c, &b.reqs, o.spec.Batch)
	for i := range b.reqs {
		sim.Uint(c, &b.reqs[i].arrival)
	}
	sim.Slice(c, &b.cmds, 3*config.MaxServingExpert*len(o.spec.Layers))
	for i := 0; c.Loading() && i < len(b.cmds); i++ {
		b.cmds[i] = &command{b: b, at: i}
	}
	for _, cmd := range b.cmds {
		sim.Int(c, &cmd.die)
		sim.Int(c, &cmd.target)
		c.Bool(&cmd.write)
		sim.Int(c, &cmd.bytes)
		sim.Int(c, &cmd.compute)
		sim.Int(c, &cmd.deps)
		sim.Uint(c, &cmd.readyAt)
		if cmd.die < 0 || cmd.die >= len(o.engines) || cmd.target < 0 || cmd.target >= len(o.engines) ||
			cmd.bytes < 0 || cmd.bytes > config.MaxServingBytes {
			c.Fail("command on die %d moves %d bytes for die %d of %d", cmd.die, cmd.bytes, cmd.target, len(o.engines))
		}
		sim.Slice(c, &cmd.outs, len(b.cmds))
		for j := range cmd.outs {
			walkAt(c, &cmd.outs[j], b.cmds)
		}
	}
	sim.Int(c, &b.remaining)
}

// walkAt walks *p, a command of the DAG cmds, as its index there.
func walkAt(c *sim.Codec, p **command, cmds []*command) {
	at := 0
	if !c.Loading() {
		at = (*p).at
	}
	sim.Int(c, &at)
	if c.Loading() && (at < 0 || at >= len(cmds)) {
		c.Fail("command %d outside a DAG of %d", at, len(cmds))
	} else if c.Loading() {
		*p = cmds[at]
	}
}

// walkRef walks a reference to a command of a batch in flight as the
// batch's place in live and the command's in its DAG. Loading, placed
// collects the commands referenced, each once.
func (o *Orchestrator) walkRef(c *sim.Codec, p **command, placed map[*command]bool) {
	bi := 0
	if !c.Loading() {
		bi = slices.Index(o.live, (*p).b)
	}
	sim.Int(c, &bi)
	if bi < 0 || bi >= len(o.live) {
		c.Fail("command of batch %d, not one of the %d in flight", bi, len(o.live))
		return
	}
	walkAt(c, p, o.live[bi].cmds)
	if c.Loading() && c.Err() == nil {
		if placed[*p] {
			c.Fail("command %d of batch %d waits in two places", (*p).at, bi)
		}
		placed[*p] = true
	}
}

// checkLoaded refuses loaded DAGs no run leaves: a command waiting while
// dependencies are unmet, a dependency count other than the number of its
// unfinished predecessors, and a batch whose remaining count is not its
// unfinished commands' or is zero. A command is unfinished while it has
// dependencies unmet or waits somewhere (placed).
func (o *Orchestrator) checkLoaded(c *sim.Codec, placed map[*command]bool) {
	for bi, b := range o.live {
		preds, unfinished := make([]int, len(b.cmds)), 0
		for _, cmd := range b.cmds {
			if cmd.deps > 0 && placed[cmd] {
				c.Fail("command %d of batch %d waits with dependencies unmet", cmd.at, bi)
			}
			if cmd.deps > 0 || placed[cmd] {
				unfinished++
				for _, out := range cmd.outs {
					preds[out.at]++
				}
			}
		}
		for i, cmd := range b.cmds {
			if preds[i] != cmd.deps {
				c.Fail("command %d of batch %d counts %d unmet dependencies of %d", i, bi, cmd.deps, preds[i])
			}
		}
		if b.remaining != unfinished || unfinished == 0 {
			c.Fail("batch %d counts %d unfinished commands of %d", bi, b.remaining, unfinished)
		}
	}
}
