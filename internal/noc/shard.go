package noc

import (
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// Counter sharding for the partitioned tick engine. Every hot-path
// statistic increment goes through a shard — per-partition scratch
// counters plus a per-partition flit free-list — and the shards fold into
// the Network's exported counter fields at the end of every cycle. The
// shard an increment lands in is keyed by *data* (the ring doing the
// work, or the node owning a flit), never by goroutine identity, so the
// per-shard subtotals are identical whether a cycle ran sequentially or
// across a worker pool; the fold is a commutative sum, so the exported
// totals are bit-identical at every cycle boundary either way.
type counterIdx int

const (
	cInjected counterIdx = iota
	cDelivered
	cDeliveredBytes
	cDeflections
	cHops
	cDropped
	cWatchdogDrops
	cUnroutable
	cFault
	cCorrupt
	cRingSkips // ring ticks the activity gate skipped (diagnostic)
	cDevSkips  // device ticks the activity gate skipped (diagnostic)
	numCounters
)

// traceCtx is the ordering key a buffered trace event carries: the cycle
// it was emitted, whether the emitter was in the ring phase (0) or the
// device phase (1), and the emitting unit's enumeration index within that
// phase (ring ID, or partition device index). Sorting buffered events by
// (at, phase, unit) — stable, so same-unit events keep emission order —
// reproduces exactly the sequence the sequential engine would have
// recorded.
type traceCtx struct {
	at    sim.Cycle
	phase uint8
	unit  int32
}

// tracedEvent is one buffered trace record awaiting the epoch replay.
type tracedEvent struct {
	ctx traceCtx
	ev  trace.Event
}

// shard holds one partition's cycle-local counter deltas, flit free-list
// and trace buffer. The padding keeps concurrently written shards on
// separate cache lines.
type shard struct {
	counts    [numCounters]uint64
	freeFlits []*Flit
	// tctx is the trace-ordering context of whatever the owning partition
	// is currently ticking; stamped by the partition loop before every
	// ring and device tick, read by traceShard while events buffer.
	tctx traceCtx
	tbuf []tracedEvent
	_    [64]byte
}

// shardFor returns the shard owning node id's flit pool: the shard of the
// partition the node's device ticks in. Nodes without an assignment (the
// sequential engine, or identities minted before Finalize) use shard 0.
func (n *Network) shardFor(id NodeID) *shard {
	if int(id) < len(n.nodeShard) && n.nodeShard[id] != nil {
		return n.nodeShard[id]
	}
	return n.shards[0]
}

// foldShards accumulates every shard's cycle deltas into the exported
// counter fields and zeroes the deltas. Runs in the serial tail of every
// cycle; between cycles the exported fields are therefore exact.
func (n *Network) foldShards() {
	for _, sh := range n.shards {
		c := &sh.counts
		n.InjectedFlits += c[cInjected]
		n.DeliveredFlits += c[cDelivered]
		n.DeliveredBytes += c[cDeliveredBytes]
		n.Deflections += c[cDeflections]
		n.TotalHops += c[cHops]
		n.DroppedFlits += c[cDropped]
		n.WatchdogDrops += c[cWatchdogDrops]
		n.UnroutableDrops += c[cUnroutable]
		n.FaultDrops += c[cFault]
		n.CorruptDrops += c[cCorrupt]
		n.RingTicksSkipped += c[cRingSkips]
		n.DeviceTicksSkipped += c[cDevSkips]
		*c = [numCounters]uint64{}
	}
}
