// The conservative-time partitioned tick engine. Rings are grouped into
// partitions that advance concurrently on a worker pool; state crosses a
// partition boundary only through inter-die (RBRG-L2) bridges, whose two
// halves tick independently inside their owning partitions and exchange
// link traffic only at barriers. Because everything a half launches
// spends LinkLatency >= 1 cycles on the wire, partitions may free-run up
// to that pipeline depth between barriers — the classic conservative-
// PDES lookahead — and because every merge point (link merges, delivery
// and trace replays, serial device order, shard folds) follows a fixed
// enumeration order, a partitioned run is bit-identical to the
// sequential engine at any (partition count, lookahead) combination.
//
// Epoch schedule (eligible epochs; see superstep.go for the horizon):
//
//	serial   compute horizon k, publish (t0, k), set bufferEvents
//	barrier
//	parallel per partition, k times: advance + tick own busy rings
//	         (ring-ID order), tick own awake devices (registration
//	         order, split-bridge halves at their bridge's slot) — side
//	         effects (latency samples, OnDeliver, trace events) buffer
//	         with their emission keys
//	barrier
//	serial   merge split-bridge links, replay deliveries in (cycle,
//	         ring) order, tick awake serial devices at the epoch's last
//	         cycle (their trace emissions buffer under their
//	         registration slot), replay traces in (cycle, phase, unit)
//	         order, watchdog sweep when due, shard fold, metrics sample,
//	         then jump the clock if the whole network is quiescent
//
// The ring and device loops are the activity-gated helpers of gate.go,
// the same pair the sequential engine's cycle runs over one all-inclusive
// group.
//
// Epochs that are not eligible run the ordinary sequential body one
// cycle at a time instead: a throttle controller (global arbitration
// sequence) or a non-empty failed-bridge set (drops purge tag state
// across a ring while devices run, the one non-commuting bridge/device
// interaction) make cycles order-sensitive. Tracers, OnDeliver hooks and
// latency recorders no longer force the sequential body — their events
// buffer per partition and replay in emission order at the barrier.
package noc

import (
	"runtime"

	"chipletnoc/internal/sim"
)

// NodeOwner is implemented by devices anchored at a single network node
// (requesters, memory and coherence controllers, ring bridges). The
// partition planner uses it to co-locate a device with the partition
// owning its rings; a device whose node spans partitions ticks serially
// at the barrier — except inter-die bridges, which split into per-half
// tickers.
type NodeOwner interface {
	Node() NodeID
}

// IdleUntiler is implemented by devices that can tell when their Tick is
// a no-op. IdleUntil(now) > now promises that Tick(now) would change
// nothing — no field of the device, no flit sent, received or released,
// no trace event — and that the same holds for every later cycle before
// the returned one unless the device is handed work first: a flit ejected
// into one of its interfaces, NodeInterface.Wake from a device that
// queued work on it directly, or a fault operation. A device with
// nothing to wait for returns the far future; one with work returns now.
//
// The tick engine uses the promise in two ways (gate.go). A device that
// is also a NodeOwner gets a wake cycle per interface: it is skipped
// while every one lies in the future, the network stores IdleUntil(now+1)
// after each Tick and zeroes the wake on ejection or Wake. A device with
// no node (the fault injector, the serving orchestrator) cannot be woken
// that way, so it is asked IdleUntil(now) at its registration slot every
// cycle instead. When every ring is idle and every device's answer lies
// in the future, Run jumps the clock to the earliest one.
type IdleUntiler interface {
	IdleUntil(now sim.Cycle) sim.Cycle
}

// ScheduleIdler is the stronger promise the superstep horizon needs from
// a serial device: its idle bound is a schedule fixed up front (the fault
// injector), so it holds no matter what other devices do in the
// meantime, and an epoch may run up to the returned cycle and tick the
// device once, in the epoch tail. A plain IdleUntiler's bound is only
// good until someone hands the device work — the serving orchestrator's
// ends the cycle any engine completes a transfer — so a serial device
// without FixedSchedule pins epochs to one cycle, exactly as a serial
// device with no idle contract at all does.
type ScheduleIdler interface {
	IdleUntiler
	FixedSchedule()
}

// PartitionsAuto, passed to SetPartitions, picks the partition count at
// plan time: min(GOMAXPROCS, ringCount/2), so small machines and small
// topologies degrade to the sequential engine instead of paying barrier
// overhead for nothing.
const PartitionsAuto = -1

// superstepMaxHorizon bounds an epoch when nothing structural does (no
// split bridges, no due events): batching more cycles than this buys
// nothing and delays the exported-counter fold indefinitely.
const superstepMaxHorizon = 1024

// partition is one ring group with the devices that tick beside it: a
// concurrently advancing slice of the network under the partitioned
// engine, the whole network under the sequential one (Network.seq), or
// the ring-less group of serial devices an epoch tail ticks (tickPlan.tail).
type partition struct {
	net   *Network
	rings []*Ring // ring-ID ascending
	// devs are the group's devices with their gates (see gate.go), in
	// registration order; split-bridge halves in-place.
	devs []devGate
	// nextWake is, after tickDevices, a lower bound on the next cycle any
	// device of this group wants to tick, as far as the loop could see;
	// the quiescent jump uses it as its cheap first test.
	nextWake sim.Cycle
	shard    *shard
}

// tickPlan is the frozen schedule for a partition count: the ring
// groups, their co-located devices, the inter-die bridges split across
// partitions, the devices that must tick serially, and the structural
// lookahead those choices imply.
type tickPlan struct {
	parts  []*partition
	splits []*RBRGL2 // bridges whose halves tick in different partitions
	// tail holds the serial devices in registration order (the fault
	// injector and the serving orchestrator land here); it has no rings
	// and writes its trace context on shard 0. Its devices' trace units
	// match the partition devices' numbering, so buffered serial-tail
	// events merge at their registration slot.
	tail *partition
	// groups is parts followed by tail: everything the quiescence test
	// must find asleep.
	groups []*partition
	// structural is the plan's lookahead ceiling: the minimum link
	// pipeline depth over split bridges (1 if any serial device lacks the
	// ScheduleIdler contract, superstepMaxHorizon when nothing bounds it).
	structural int
}

// l2HalfTicker adapts one side of a split inter-die bridge to the Device
// interface so the partition loop can tick it in registration order.
type l2HalfTicker struct {
	b    *RBRGL2
	side int
}

func (t l2HalfTicker) Name() string { return t.b.name }

func (t l2HalfTicker) Tick(now sim.Cycle) { t.b.tickHalf(t.side, now) }

func (t l2HalfTicker) IdleUntil(now sim.Cycle) sim.Cycle { return t.b.halfIdleUntil(t.side, now) }

// SetPartitions requests the partition count used by Run: 0 or 1 selects
// the sequential engine, higher counts are clamped to the ring count,
// and PartitionsAuto (any negative value) sizes the pool from GOMAXPROCS
// and the topology at plan time. Results are bit-identical at every
// setting. Takes effect on the next Run call.
func (n *Network) SetPartitions(p int) {
	if p < 0 {
		p = PartitionsAuto
	}
	n.partitions = p
	n.invalidatePlan()
}

// SetLookahead caps the superstep horizon at k cycles per epoch; 0 (the
// default) restores the automatic horizon — the structural inter-
// partition pipeline depth. Results are bit-identical at every setting.
func (n *Network) SetLookahead(k int) {
	if k < 0 {
		k = 0
	}
	n.lookahead = k
}

// Lookahead returns the configured horizon cap (0 = auto).
func (n *Network) Lookahead() int { return n.lookahead }

// Partitions returns the effective partition count Run uses: at least 1,
// at most the ring count, with PartitionsAuto resolved against the
// runtime's processor budget and an oversubscription guard (never more
// partitions than half the ring count).
func (n *Network) Partitions() int {
	p := n.partitions
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
		if half := len(n.rings) / 2; p > half {
			p = half
		}
	}
	if p > len(n.rings) {
		p = len(n.rings)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// invalidatePlan discards the frozen schedules (device list or partition
// request changed) and restores the sequential shard routing. The wake
// table goes with them and is rebuilt all-awake. Cheap when nothing was
// built yet.
func (n *Network) invalidatePlan() {
	n.seq = nil
	if n.plan == nil {
		return
	}
	n.plan = nil
	for _, r := range n.rings {
		r.shard = n.shards[0]
	}
	n.nodeShard = nil
}

// ringWeights estimates each ring's per-cycle cost: station logic
// dominates, with the slot rotation contributing per position per
// direction.
func (n *Network) ringWeights() []int {
	weights := make([]int, len(n.rings))
	for i, r := range n.rings {
		w := r.positions
		if r.full {
			w *= 2
		}
		weights[i] = w + 8*len(r.stations)
	}
	return weights
}

// ensurePlan builds (or returns) the frozen schedule for the current
// partition request. The assignment is a pure function of the topology
// and the partition count, so the plan — and therefore every parallel
// run — is deterministic.
func (n *Network) ensurePlan() *tickPlan {
	if n.plan != nil {
		return n.plan
	}
	k := n.Partitions()
	n.plan = n.buildPlan(n.planAssignment(k), k)
	return n.plan
}

// planAssignment picks the ring-to-partition map. It first groups rings
// into clusters — connected components over every multi-interface node
// except inter-die (RBRG-L2) bridge nodes — and LPT-packs whole clusters
// when that cannot hurt balance much: at least one cluster per
// partition, and the heaviest cluster within 1.25x of the heaviest
// single ring. Cluster packing guarantees every partition cut crosses
// only L2 bridges, whose pipeline depth is the superstep engine's
// lookahead; when clustering is too coarse (an L1-bridged mesh collapses
// into one cluster) it falls back to plain ring-LPT, which preserves the
// per-cycle engine's balance at the cost of a one-cycle horizon.
func (n *Network) planAssignment(k int) []int {
	weights := n.ringWeights()
	l2node := make(map[NodeID]bool)
	for _, d := range n.devices {
		if b, ok := d.(*RBRGL2); ok {
			l2node[b.node] = true
		}
	}
	// Union-find over rings joined by non-L2 multi-interface nodes.
	parent := make([]int, len(n.rings))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id, info := range n.nodes {
		if len(info.ifaces) < 2 || l2node[NodeID(id)] {
			continue
		}
		first := -1
		for _, ni := range info.ifaces {
			r := int(ni.station.ring.id)
			if first == -1 {
				first = r
				continue
			}
			ra, rb := find(first), find(r)
			if ra != rb {
				if rb < ra {
					ra, rb = rb, ra
				}
				parent[rb] = ra // lowest ring ID roots its cluster
			}
		}
	}
	clusterOf := make([]int, len(n.rings)) // ring -> dense cluster index
	var clusterWeight []int
	rootIdx := make(map[int]int)
	for i := range n.rings {
		root := find(i)
		ci, ok := rootIdx[root]
		if !ok {
			ci = len(clusterWeight)
			rootIdx[root] = ci
			clusterWeight = append(clusterWeight, 0)
		}
		clusterOf[i] = ci
		clusterWeight[ci] += weights[i]
	}
	ringMax, clusterMax := 0, 0
	for _, w := range weights {
		if w > ringMax {
			ringMax = w
		}
	}
	for _, w := range clusterWeight {
		if w > clusterMax {
			clusterMax = w
		}
	}
	if len(clusterWeight) >= k && clusterMax*4 <= ringMax*5 {
		cassign := sim.PartitionLPT(clusterWeight, k)
		assign := make([]int, len(n.rings))
		for i := range assign {
			assign[i] = cassign[clusterOf[i]]
		}
		return assign
	}
	return sim.PartitionLPT(weights, k)
}

// buildPlan freezes a schedule from an explicit ring-to-partition
// assignment (assign[i] in [0, k) for ring i). ensurePlan feeds it the
// planner's assignment; the fuzz suite feeds it arbitrary ones —
// correctness must not depend on how rings are grouped.
func (n *Network) buildPlan(assign []int, k int) *tickPlan {
	n.bindGates() // fresh wake table: a new plan starts with everything awake
	for len(n.shards) < k {
		n.shards = append(n.shards, new(shard))
	}
	plan := &tickPlan{parts: make([]*partition, k), tail: &partition{net: n, shard: n.shards[0]}}
	for i := range plan.parts {
		plan.parts[i] = &partition{net: n, shard: n.shards[i]}
	}
	plan.groups = append(append(plan.groups, plan.parts...), plan.tail)
	for i, r := range n.rings {
		r.shard = n.shards[assign[i]]
		p := plan.parts[assign[i]]
		p.rings = append(p.rings, r)
	}

	// A node belongs to a partition when all its interfaces do; its flit
	// pool then lives on that partition's shard. Spanning nodes (inter-
	// partition bridges) pool on shard 0 — those devices only run in the
	// serial tail or as split halves that never touch the pool.
	nodePart := make([]int, len(n.nodes))
	n.nodeShard = make([]*shard, len(n.nodes))
	for id, info := range n.nodes {
		part := -1
		for _, ni := range info.ifaces {
			p := assign[ni.station.ring.id]
			if part == -1 {
				part = p
			} else if part != p {
				part = -2
				break
			}
		}
		nodePart[id] = part
		if part >= 0 {
			n.nodeShard[id] = n.shards[part]
		} else {
			n.nodeShard[id] = n.shards[0]
		}
	}

	for regIdx, d := range n.devices {
		gate := n.seq.devs[regIdx]
		owner, ok := d.(NodeOwner)
		if !ok {
			plan.tail.devs = append(plan.tail.devs, gate)
			continue
		}
		p := nodePart[owner.Node()]
		if p >= 0 {
			plan.parts[p].devs = append(plan.parts[p].devs, gate)
			continue
		}
		if b, isL2 := d.(*RBRGL2); isL2 {
			// An inter-die bridge spanning partitions splits: each half
			// ticks inside the partition owning its ring, at the bridge's
			// registration slot (side 0 before side 1, matching the
			// monolithic Tick's internal order), and the halves' staged
			// link traffic merges at the epoch barrier. The bridge's two
			// wake words (one per interface, in side order) split the same
			// way; a half without a word of its own is polled.
			for side := 0; side < 2; side++ {
				pi := assign[b.half[side].iface.station.ring.id]
				half := l2HalfTicker{b: b, side: side}
				hg := devGate{dev: half, idle: half, unit: gate.unit + int32(side)}
				if gate.hi-gate.lo == 2 {
					hg.lo = gate.lo + int32(side)
					hg.hi = hg.lo + 1
				}
				plan.parts[pi].devs = append(plan.parts[pi].devs, hg)
			}
			plan.splits = append(plan.splits, b)
			continue
		}
		plan.tail.devs = append(plan.tail.devs, gate)
	}

	plan.structural = superstepMaxHorizon
	for _, b := range plan.splits {
		l := b.cfg.LinkLatency
		if l < 1 {
			l = 1
		}
		if l < plan.structural {
			plan.structural = l
		}
	}
	for i := range plan.tail.devs {
		if _, ok := plan.tail.devs[i].dev.(ScheduleIdler); !ok {
			// A serial device without a fixed schedule may interact with
			// partition state every cycle (an L1 bridge cut by ring-LPT,
			// the serving orchestrator collecting engine completions):
			// epochs collapse to the per-cycle schedule.
			plan.structural = 1
			break
		}
	}
	return plan
}

// cycleParallelEligible reports whether upcoming cycles may run their
// ring and device phases concurrently (see the package comment for why
// each condition forces the sequential body).
func (n *Network) cycleParallelEligible() bool {
	return n.throttle == nil && len(n.failed) == 0
}

// Run advances the network the given number of cycles, using the
// partitioned superstep engine when SetPartitions configured more than
// one partition and the topology supports it. Results are bit-identical
// to calling Tick in a loop.
func (n *Network) Run(cycles int) {
	if cycles <= 0 {
		return
	}
	if !n.finalized {
		panic("noc: Run before Finalize")
	}
	defer n.noteRun(n.engineStats())
	if n.Partitions() > 1 {
		if plan := n.ensurePlan(); len(plan.parts) > 1 {
			n.runPartitioned(plan, cycles)
			return
		}
	}
	for done := 0; done < cycles; {
		n.Tick(sim.Cycle(n.ticks))
		done++
		done += n.skipQuiescent(cycles-done, n.seq)
	}
}
