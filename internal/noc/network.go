package noc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"chipletnoc/internal/metrics"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// Device is anything attached to the network through node interfaces:
// cores, cache slices, memory controllers, traffic generators and ring
// bridges. Devices are ticked after all ring/station logic each cycle —
// every cycle, unless they also implement IdleUntiler and say they have
// nothing to do (see gate.go).
type Device interface {
	Name() string
	Tick(now sim.Cycle)
}

// nodeInfo records where a node is reachable.
type nodeInfo struct {
	name   string
	ifaces []*NodeInterface // at most one per ring
	// fwd[arrival][dst] is the precomputed bridge forwarding decision:
	// the slot in ifaces of the interface a transit flit for dst continues
	// on after arriving at ifaces[arrival], or -1 for no onward route.
	// Only populated for multi-ring (bridge) nodes; rebuilt with the route
	// table so it always reflects the surviving topology.
	fwd [][]int8
}

// Network is a complete multi-ring NoC: rings, bridges, attached devices
// and the inter-ring routing tables. One Tick is one NoC clock cycle.
type Network struct {
	name    string
	rings   []*Ring
	devices []Device
	nodes   []*nodeInfo
	now     sim.Cycle
	ticks   uint64 // total Tick calls; elapsed simulated cycles

	// flit identity: per-source-node sequence streams. A flit's ID is
	// (stream sequence << flitIDShift) | source node, so IDs are globally
	// unique, never zero (sequences start at 1; zero is the trace
	// sentinel), and depend only on the minting node's own history, not on
	// any global order across nodes (the goldens pin them). flitIDShift is
	// fixed at Finalize from the node count.
	flitSeq     []uint64
	flitIDShift uint

	wiringErr error // the first wiring fault a build call met (fail)

	// ring-graph routing, built by Finalize
	finalized bool
	ringDist  [][]int
	ringNext  [][]RingID // next ring on the shortest path
	// routeTbl[r][dst] is the fully resolved exit decision for a flit on
	// ring r heading to node dst — the hot-path replacement for the map
	// walks in routeFrom/localTarget — and routeCands holds the bridge
	// candidate lists its remote entries index. Rebuilt with the BFS
	// tables.
	routeTbl   [][]routeEntry
	routeCands []exitPoint

	// snap holds the identity pools of a state walk between walks, emptied
	// but with their chunks kept (tens of thousands of flits and messages
	// per checkpoint of a loaded system); lastCheckpoint is the size of the
	// previous checkpoint without its caller blob, which sizes the next
	// one's buffer. Host-side scratch, like the free-list below.
	snap           Snap
	lastCheckpoint int
	// topoHash caches TopoHash once the network is finalized (0: not yet).
	topoHash uint64

	// freeFlits is the flit free-list: a plain deterministic LIFO, never a
	// sync.Pool — recycling order is reproducible and race-free even when
	// the parallel harness runs many networks at once.
	freeFlits []*Flit
	// freeMsgs is the same for the upper-layer messages flits carry
	// (TakeMsg/PutMsg): opaque to the network, never serialized, emptied on
	// restore. msgsMinted and msgsReused count TakeMsg's misses and hits —
	// host-side diagnostics.
	freeMsgs               []any
	msgsMinted, msgsReused uint64

	// Activity gating (gate.go). devs is every device with its gate, in
	// registration order; awake holds one bit per device, set while it is to
	// be ticked, polled the bits of the devices that never clear theirs, cal
	// the cycles at which the sleepers asked to be woken, and kinds the tick
	// counts by Go type. All five are built lazily (awake == nil: not bound
	// to the current device list).
	// forceAwake is the test-only reference engine: every ring, station and
	// device ticks every cycle and the clock never jumps. Tests switch it on
	// before the first Tick or straight after a restore, when no station is
	// owed anything: CrossStation.settle credits nothing under it.
	devs          []devGate
	awake, polled []uint64
	cal           wakeCal
	kinds         []*kindTally
	noted         EngineStats // the reading PublishEngineStats last published
	forceAwake    bool
	// sweeping, sweepRing and sweepPos say how far the station phase of the
	// current cycle has come while a visit made by tickRings runs: every
	// ring before sweepRing, and every position of sweepRing before
	// sweepPos, has had its turn. A parked station is owed a defeat for a
	// cycle only once its turn in that cycle has passed (sweptThrough).
	sweeping  bool
	sweepRing RingID
	sweepPos  int

	// Always 0; kept only because bench/ compiles against them.
	EpochsRun, BarrierSyncs uint64

	// SkippedCycles / RingTicksSkipped / StationTicksSkipped /
	// DeviceTicksSkipped count what the activity gate saved: cycles Run
	// jumped over because the whole network was quiescent, ring ticks
	// (advance plus the station phase) not executed because the ring
	// carried and queued nothing, station ticks not executed because
	// nothing could happen at the station that cycle (the stations of
	// skipped rings included), and device ticks not executed because the
	// device reported itself idle — all including the rings, stations and
	// devices of jumped cycles. Diagnostics only: never serialized,
	// excluded from digests.
	SkippedCycles       uint64
	RingTicksSkipped    uint64
	StationTicksSkipped uint64
	DeviceTicksSkipped  uint64

	// ITagEnabled / ETagEnabled toggle the starvation and deflection
	// control tags (on by default; the tag ablation turns them off). Set
	// them before the first Tick: a station's place in the visit set is
	// derived from ITagEnabled when its heads change and when it is
	// visited, not every cycle.
	ITagEnabled, ETagEnabled bool

	// Tracer, when set, records structured NoC events (injections,
	// deflections, bridge hops, DRM transitions). Nil costs nothing.
	Tracer *trace.Tracer

	// metrics is the observability registry attached by EnableMetrics;
	// nil (the default) costs one pointer test per Tick and nothing else.
	metrics *metrics.Registry

	// throttle is the optional congestion controller (SetThrottle).
	throttle *throttleState

	// fault machinery: currently failed bridge nodes and the per-flit
	// age watchdog (see fault.go). All off by default, so fault-free
	// runs are bit-identical to a build without this subsystem.
	failed         map[NodeID]bool
	watchdogBudget uint64
	watchdogPeriod uint64

	// delivery hook and aggregate statistics
	OnDeliver      func(f *Flit, now sim.Cycle)
	InjectedFlits  uint64
	DeliveredFlits uint64
	DeliveredBytes uint64 // payload bytes at final destinations
	Deflections    uint64
	TotalHops      uint64 // occupied-slot movements (wire energy metric)
	latency        latencyRecorder

	// drop accounting: DroppedFlits is the aggregate in the conservation
	// invariant Injected == Delivered + Dropped + AccountedFlits(); the
	// rest break it down by cause.
	DroppedFlits    uint64
	WatchdogDrops   uint64 // aged out by the watchdog
	UnroutableDrops uint64 // destination unreachable at (re)route time
	FaultDrops      uint64 // killed by the injector or lost in a dead bridge
	CorruptDrops    uint64 // corrupted payloads discarded at delivery
	ReroutedFlits   uint64 // live flits retargeted after a table rebuild
}

// latencyRecorder lets experiments capture per-flit latency without
// forcing every run to pay for histogram storage.
type latencyRecorder func(f *Flit, cycles uint64)

// NewNetwork creates an empty network with both fairness tags enabled.
func NewNetwork(name string) *Network {
	return &Network{
		name:        name,
		ITagEnabled: true,
		ETagEnabled: true,
	}
}

// Ticks returns the number of cycles the network has simulated.
func (n *Network) Ticks() uint64 { return n.ticks }

// RecordLatency installs a per-delivery latency callback.
func (n *Network) RecordLatency(fn func(f *Flit, cycles uint64)) { n.latency = fn }

// building panics when a build call comes after Finalize: the topology
// is frozen then, and only AddDevice may still run.
func (n *Network) building(call string) {
	if n.finalized {
		panic("noc: " + call + " after Finalize")
	}
}

// fail records a wiring fault, the first one wins; the build call that
// met it carries on with a harmless placeholder, and Finalize returns it.
func (n *Network) fail(format string, args ...any) {
	if n.wiringErr == nil {
		n.wiringErr = fmt.Errorf("noc: "+format, args...)
	}
}

// AddRing creates a ring with the given number of slot positions;
// full=true gives it both directions. Positions must be at least 2.
func (n *Network) AddRing(positions int, full bool) *Ring {
	n.building("AddRing")
	id := RingID(len(n.rings))
	if positions < 2 {
		n.fail("ring %d needs at least 2 positions, has %d", id, positions)
		positions = 2
	}
	r := &Ring{
		id:        id,
		net:       n,
		positions: positions,
		full:      full,
		stationAt: make([]*CrossStation, positions),
	}
	r.cw.init(positions)
	if full {
		r.ccw.init(positions)
	} else {
		r.ccw.initAbsent(positions)
	}
	r.stationSet = make([]stationWord, maskWords(positions))
	n.rings = append(n.rings, r)
	return r
}

// Ring returns ring id, panicking on out-of-range ids (wiring bug).
func (n *Network) Ring(id RingID) *Ring { return n.rings[id] }

// Rings returns all rings.
func (n *Network) Rings() []*Ring { return n.rings }

// NewNode allocates a node identity for a device. The name travels in
// checkpoints, so it must be non-empty and at most MaxNameBytes long.
func (n *Network) NewNode(name string) NodeID {
	n.building("NewNode")
	id := NodeID(len(n.nodes))
	if name == "" {
		n.fail("node %d needs a name", id)
	} else if len(name) > MaxNameBytes {
		n.fail("node name of %d bytes exceeds the limit of %d", len(name), MaxNameBytes)
	}
	n.nodes = append(n.nodes, &nodeInfo{name: name})
	return id
}

// Nodes returns the number of allocated nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Attach connects a node to a station with the default queue depths.
func (n *Network) Attach(node NodeID, st *CrossStation) *NodeInterface {
	return n.AttachQueued(node, st, DefaultInjectDepth, DefaultEjectDepth)
}

// AttachQueued connects a node to a station with explicit queue depths.
// A node may attach to several rings (that is what bridges do) but only
// once per ring, and to at most 127.
func (n *Network) AttachQueued(node NodeID, st *CrossStation, injectDepth, ejectDepth int) *NodeInterface {
	n.building("Attach")
	info := n.nodes[node]
	ni := st.attach(node, injectDepth, ejectDepth)
	switch {
	case info.on(st.ring.id) != nil:
		n.fail("node %q has two stations on ring %d", info.name, st.ring.id)
	case len(info.ifaces) == math.MaxInt8:
		n.fail("node %q attached to more than %d rings", info.name, math.MaxInt8)
	default:
		ni.nodeSlot = len(info.ifaces)
		info.ifaces = append(info.ifaces, ni)
	}
	return ni
}

// on returns the node's interface on ring r, nil if it has none there.
func (info *nodeInfo) on(r RingID) *NodeInterface {
	for _, ni := range info.ifaces {
		if ni.station.ring.id == r {
			return ni
		}
	}
	return nil
}

// AddDevice registers a device for per-cycle ticking (after ring logic).
// The gates are bound again, all awake, on the next Tick. It is the one
// build call allowed after Finalize, and the device's name is part of
// TopoHash, so the cached hash goes too.
func (n *Network) AddDevice(d Device) {
	n.devices = append(n.devices, d)
	n.devs, n.awake, n.topoHash = nil, nil, 0
}

// Devices returns the registered devices in registration order — the
// order they tick in, are walked in by a checkpoint and register metrics
// in. The slice is the network's own: do not modify it.
func (n *Network) Devices() []Device { return n.devices }

// Partitions always returns 1; kept only because bench/ compiles against it.
func (n *Network) Partitions() int { return 1 }

// NewFlit mints a flit with a network-unique ID, reusing storage from the
// free-list when available. IDs are strictly monotonic per source node
// whether or not the struct is recycled, so everything keyed by flit ID
// (E-tag state, bridge load-balancing, traces) is unaffected by pooling.
func (n *Network) NewFlit(src, dst NodeID, kind Kind, payloadBytes int) *Flit {
	for int(src) >= len(n.flitSeq) {
		// Pre-Finalize minting only (tests): Finalize sizes the vector to
		// the node count.
		n.flitSeq = append(n.flitSeq, 0)
	}
	n.flitSeq[src]++
	shift := n.flitIDShift
	if shift == 0 {
		shift = preFinalizeIDShift
	}
	id := n.flitSeq[src]<<shift | uint64(src)
	if k := len(n.freeFlits); k > 0 {
		f := n.freeFlits[k-1]
		n.freeFlits[k-1] = nil
		n.freeFlits = n.freeFlits[:k-1]
		*f = Flit{ID: id, Src: src, Dst: dst, Kind: kind, PayloadBytes: int32(payloadBytes)}
		return f
	}
	return &Flit{ID: id, Src: src, Dst: dst, Kind: kind, PayloadBytes: int32(payloadBytes)}
}

// preFinalizeIDShift is the sequence shift used for flits minted before
// Finalize fixes the real one from the node count (test convenience —
// production systems mint only after Finalize).
const preFinalizeIDShift = 32

// ReleaseFlit returns a flit to the free-list for reuse by a later
// NewFlit. Callers hand back delivered flits after consuming them (the
// network itself recycles dropped ones in dropFlit); the flit must not be
// referenced afterwards. The free-list is a plain LIFO — deliberately not
// a sync.Pool, whose scheduler-dependent recycling would make allocation
// behaviour (and any accidental use-after-release) nondeterministic
// across runs and racy across the parallel harness's concurrent networks.
// Releasing nil is a no-op; releasing twice panics, because the second
// owner's writes would silently corrupt an unrelated future flit.
func (n *Network) ReleaseFlit(f *Flit) {
	if f == nil {
		return
	}
	if f.freed {
		panic(fmt.Sprintf("noc: flit %d released twice", f.ID))
	}
	f.freed = true
	f.Msg = nil
	n.freeFlits = append(n.freeFlits, f)
}

// TakeMsg pops the upper-layer message PutMsg handed back last, or returns
// nil when the free-list is empty and the caller must allocate. The
// network never looks inside: the protocol layer (chi.NewMsg) owns the
// type and says who may put a message back.
func (n *Network) TakeMsg() any {
	k := len(n.freeMsgs)
	if k == 0 {
		n.msgsMinted++
		return nil
	}
	m := n.freeMsgs[k-1]
	n.freeMsgs[k-1] = nil
	n.freeMsgs = n.freeMsgs[:k-1]
	n.msgsReused++
	return m
}

// PutMsg pushes a message no flit, queue or table of this network still
// references onto the free-list for a later TakeMsg.
func (n *Network) PutMsg(m any) { n.freeMsgs = append(n.freeMsgs, m) }

// RecycleRefused hands back a flit that Send or SendPriority refused
// (returned false for) and that the caller will not retry: a device that
// mints a fresh flit per attempt calls it instead of dropping the struct
// for the garbage collector. The sequence number the flit consumed stays
// consumed (see NewFlit), so recycling changes no flit ID. It differs
// from ReleaseFlit only in what it checks: a flit the network ever
// accepted is still queued or in flight somewhere, so handing one here
// panics.
func (n *Network) RecycleRefused(f *Flit) {
	if f.counted {
		panic(fmt.Sprintf("noc: flit %d recycled as refused after the network accepted it", f.ID))
	}
	n.ReleaseFlit(f)
}

// Finalize freezes the topology and builds the ring-graph routing tables.
// It must be called once, after all rings/attachments and before the
// first Tick. The first wiring fault a build call met comes back first.
func (n *Network) Finalize() error {
	if n.wiringErr != nil {
		return n.wiringErr
	}
	if n.finalized {
		return fmt.Errorf("noc: %s already finalized", n.name)
	}
	R := len(n.rings)
	if R == 0 {
		return fmt.Errorf("noc: %s needs at least one ring", n.name)
	}
	n.rebuildRoutes()
	// Validate reachability: every node must be reachable from every ring.
	for rid := 0; rid < R; rid++ {
		for id, info := range n.nodes {
			if len(info.ifaces) == 0 {
				return fmt.Errorf("noc: node %q has no interface", info.name)
			}
			if _, _, err := n.routeFrom(RingID(rid), NodeID(id)); err != nil {
				return fmt.Errorf("noc: %w", err)
			}
		}
	}
	// Fix the flit-ID layout: enough low bits to hold any node ID, the
	// rest for that node's private sequence counter.
	for len(n.flitSeq) < len(n.nodes) {
		n.flitSeq = append(n.flitSeq, 0)
	}
	n.flitIDShift = uint(bits.Len(uint(len(n.flitSeq))))
	n.finalized = true
	return nil
}

// exitPoint is a resolved ring exit: the station position and interface
// index a flit leaves its current ring at.
type exitPoint struct {
	pos   int32
	iface int8
}

// routeEntry is one cell of the dense routing table: the exit decision
// for (current ring, destination node), in 16 bytes. A local destination
// leaves at position at, interface iface. A remote one leaves at one of
// the alive bridges towards the next ring, routeCands[at:at+count], in
// node-ID order.
type routeEntry struct {
	dstRing   int32
	at, count int32
	iface     int8
	ok, local bool
}

// rebuildRoutes recomputes the all-pairs ring-graph BFS from the bridge
// inventory, excluding failed bridges. Finalize runs it once at
// construction; FailBridge/RepairBridge re-run it at fault time. Ring
// pairs whose every bridge has failed simply lose their edge — routes
// through them disappear and affected flits become unreachable.
func (n *Network) rebuildRoutes() {
	R := len(n.rings)
	// The bridge inventory, in one walk: the live bridges in node-id order
	// and the ring adjacency, each bridge's rings taken in ascending order.
	adj := make([][]RingID, R)
	var live []NodeID
	for id, info := range n.nodes {
		if len(info.ifaces) < 2 || n.failed[NodeID(id)] {
			continue
		}
		live = append(live, NodeID(id))
		rings := make([]RingID, len(info.ifaces))
		for i, ni := range info.ifaces {
			rings[i] = ni.station.ring.id
		}
		slices.Sort(rings)
		for _, a := range rings {
			for _, b := range rings {
				if a != b && !slices.Contains(adj[a], b) {
					adj[a] = append(adj[a], b)
				}
			}
		}
	}
	// All-pairs BFS over the ring graph.
	n.ringDist = make([][]int, R)
	n.ringNext = make([][]RingID, R)
	for s := 0; s < R; s++ {
		dist := make([]int, R)
		next := make([]RingID, R)
		for i := range dist {
			dist[i] = math.MaxInt32
			next[i] = -1
		}
		dist[s] = 0
		queue := []RingID{RingID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] != math.MaxInt32 {
					continue
				}
				dist[v] = dist[u] + 1
				if u == RingID(s) {
					next[v] = v
				} else {
					next[v] = next[u]
				}
				queue = append(queue, v)
			}
		}
		n.ringDist[s] = dist
		n.ringNext[s] = next
	}
	n.rebuildRouteTable(live)
}

// rebuildRouteTable materialises the dense per-(ring, destination) exit
// table from the freshly built BFS tables. The candidates of a ring pair
// are the live bridges spanning it, in node-id order, so the flit-ID load
// balancing of localTarget picks the same bridge for the same flit.
func (n *Network) rebuildRouteTable(live []NodeID) {
	R := len(n.rings)
	n.routeTbl = make([][]routeEntry, R)
	n.routeCands = n.routeCands[:0]
	type span struct{ at, count int32 }
	aliveCands := make(map[[2]RingID]span)
	for s := 0; s < R; s++ {
		rid := RingID(s)
		entries := make([]routeEntry, len(n.nodes))
		for id, info := range n.nodes {
			e := &entries[id]
			if ni := info.on(rid); ni != nil {
				e.ok, e.local, e.dstRing = true, true, int32(rid)
				e.at, e.iface = int32(ni.station.pos), int8(ni.index)
				continue
			}
			// Best destination ring: minimal BFS distance, ties to the
			// lower ring ID (independent of attach order).
			best, bestDist := RingID(-1), math.MaxInt32
			for _, ni := range info.ifaces {
				r := ni.station.ring.id
				if d := n.ringDist[s][r]; d < bestDist || (d == bestDist && r < best) {
					best, bestDist = r, d
				}
			}
			if best < 0 || bestDist == math.MaxInt32 {
				continue // unreachable: e.ok stays false
			}
			next := n.ringNext[s][best]
			key := [2]RingID{rid, next}
			cands, seen := aliveCands[key]
			if !seen {
				cands.at = int32(len(n.routeCands))
				for _, b := range live {
					info := n.nodes[b]
					if bi := info.on(rid); bi != nil && info.on(next) != nil {
						n.routeCands = append(n.routeCands, exitPoint{pos: int32(bi.station.pos), iface: int8(bi.index)})
					}
				}
				cands.count = int32(len(n.routeCands)) - cands.at
				aliveCands[key] = cands
			}
			if cands.count == 0 {
				continue // every bridge on the first hop failed
			}
			e.ok, e.dstRing, e.at, e.count = true, int32(best), cands.at, cands.count
		}
		n.routeTbl[s] = entries
	}
	n.rebuildForwardTables()
}

// rebuildForwardTables precomputes, for every bridge node, which onward
// interface a transit flit continues on per (arrival interface,
// destination) — the hot bridge-hop decision forwardInterface otherwise
// recomputes per flit from the BFS tables.
func (n *Network) rebuildForwardTables() {
	for _, info := range n.nodes {
		if len(info.ifaces) < 2 {
			info.fwd = nil
			continue
		}
		fwd := make([][]int8, len(info.ifaces))
		for ai, arrived := range info.ifaces {
			row := make([]int8, len(n.nodes))
			for dst := range row {
				row[dst] = -1
				if out := n.computeForward(info, arrived, NodeID(dst)); out != nil {
					row[dst] = int8(out.nodeSlot)
				}
			}
			fwd[ai] = row
		}
		info.fwd = fwd
	}
}

// MustFinalize panics on Finalize errors; topology construction errors
// are programming bugs.
func (n *Network) MustFinalize() {
	if err := n.Finalize(); err != nil {
		panic(err)
	}
}

// routeFrom picks the destination ring and (if remote) whether the node
// is local to ring r, from the dense routing table. A destination with no
// surviving path yields a typed *ErrUnreachable.
func (n *Network) routeFrom(r RingID, dst NodeID) (dstRing RingID, local bool, err error) {
	e := &n.routeTbl[r][dst]
	if !e.ok {
		return 0, false, n.unreachable(r, dst)
	}
	return RingID(e.dstRing), e.local, nil
}

// localTarget returns the station position and interface index a flit on
// ring r must leave at to reach its destination: the destination itself
// when local, otherwise a bridge towards the destination's ring. Multiple
// parallel bridges between the same ring pair are load-balanced by the
// flit's sequence number plus its source (stable for the flit's
// lifetime, so consecutive flits from one node alternate bridges and
// different nodes start at different offsets); failed bridges were
// filtered out of the table at rebuild time, and a pair whose every
// bridge failed is unreachable.
func (n *Network) localTarget(r *Ring, f *Flit) (pos, iface int, err error) {
	e := &n.routeTbl[r.id][f.Dst]
	if !e.ok {
		return 0, 0, n.unreachable(r.id, f.Dst)
	}
	if e.local {
		return int(e.at), int(e.iface), nil
	}
	seq := f.ID >> n.flitIDShift
	c := n.routeCands[int(e.at)+int((seq+uint64(f.Src))%uint64(e.count))]
	return int(c.pos), int(c.iface), nil
}

// Trace records a structured event at the current cycle when a tracer is
// attached (no-op otherwise). The core NoC records through it, and so do
// devices for events the fabric cannot see (fault injections, CHI
// retries, serving stalls). A caller that formats its detail tests
// Tracer first, so an untraced run builds no string.
func (n *Network) Trace(kind trace.Kind, flitID uint64, where, detail string) {
	if n.Tracer == nil {
		return
	}
	n.Tracer.Record(trace.Event{Cycle: n.now, Kind: kind, FlitID: flitID, Where: where, Detail: detail})
}

// flitEjected is called by stations when a flit leaves a ring into an
// eject queue. Bridges receive transit flits; anything else is a final
// delivery.
func (n *Network) flitEjected(ni *NodeInterface, f *Flit, now sim.Cycle) {
	if ni.node != f.Dst {
		n.Trace(trace.Eject, f.ID, n.nodes[ni.node].name, "")
		return // transit stop at a bridge; the bridge forwards it
	}
	if f.Corrupted {
		// The destination's link-level check rejects the payload. The
		// flit was appended to the eject queue by this very ejection, so
		// it is the tail entry; remove it and count the drop instead of
		// a delivery.
		ni.eject.PopTail()
		n.dropFlit(f, &n.CorruptDrops, ni.station.ring, trace.Fault, n.nodes[ni.node].name, "corrupt payload discarded")
		ni.promoteReservations()
		return
	}
	n.Trace(trace.Deliver, f.ID, n.nodes[ni.node].name, "")
	n.DeliveredFlits++
	n.DeliveredBytes += uint64(f.PayloadBytes)
	if n.latency != nil {
		n.latency(f, uint64(now-f.Created))
	}
	if n.OnDeliver != nil {
		n.OnDeliver(f, now)
	}
}

// InFlight returns injected minus delivered minus dropped flits (queued,
// on rings, or inside bridges). With fault injection active, dropped
// flits are no longer in flight — see AccountedFlits for the full
// conservation accounting.
func (n *Network) InFlight() uint64 { return n.InjectedFlits - n.DeliveredFlits - n.DroppedFlits }

// Tick runs one cycle on the calling goroutine:
// rings advance and stations work, then devices (including bridges and
// generators) run — the gated ring and device loops of gate.go — then the
// cycle tail.
func (n *Network) Tick(now sim.Cycle) {
	if !n.finalized {
		panic("noc: Tick before Finalize")
	}
	n.now = now
	n.ticks++
	n.throttleTick()
	if n.awake == nil {
		n.bindGates()
	}
	n.tickRings(now)
	n.tickDevices(now)
	n.cycleTail(now)
}

// cycleTail ends every cycle, ticked or landed on by a quiescent jump:
// the watchdog sweep when due, then the metrics sample.
func (n *Network) cycleTail(now sim.Cycle) {
	if n.watchdogBudget > 0 && n.ticks%n.watchdogPeriod == 0 {
		n.watchdogSweep(now)
	}
	if n.metrics != nil {
		n.metrics.TickSample(n.ticks)
	}
}
