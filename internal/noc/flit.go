// Package noc implements the paper's primary contribution: a bufferless
// multi-ring network-on-chip for heterogeneous chiplets.
//
// The building blocks mirror Section 4 of the paper:
//
//   - slotted Rings ("half" = single clockwise loop, "full" =
//     bidirectional loops) whose extra repeater positions model the
//     physical distance-per-cycle constraint of Section 3.3;
//   - CrossStations with up to two node interfaces, each with an Inject
//     Queue and an Eject Queue; on-the-fly flits always win, new
//     injections arbitrate round-robin, and direction selection takes the
//     shortest path;
//   - I-tags (slot reservations that make injection starvation-free) and
//     E-tags (eject-buffer reservations that bound deflection to at most
//     one extra lap);
//   - RBRGL1 intra-die ring bridges that weave rings into a mesh-of-rings,
//     and RBRGL2 inter-die bridges with Tx/Rx buffering, link pipelines,
//     backpressure, deadlock detection and the SWAP resolution mode.
//
// Everything is deterministic and cycle-accurate: one Network.Tick is one
// 3 GHz NoC clock edge.
package noc

import (
	"fmt"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// NodeID identifies a device attached to the network (core cluster, cache
// slice, memory controller, bridge, ...). IDs are allocated by the Network.
type NodeID int

// RingID identifies one ring within a Network.
type RingID int

// Direction is a traversal direction on a ring.
type Direction int

// Ring traversal directions. Half rings only use CW.
const (
	CW Direction = iota
	CCW
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == CW {
		return "cw"
	}
	return "ccw"
}

// Kind classifies a flit for the upper protocol layers. The NoC itself is
// oblivious to kinds except for statistics; per Section 3.4.3 every
// transaction is a single flit carrying its own header.
type Kind int

// Flit kinds used by the protocol layers.
const (
	KindRequest Kind = iota // read/ownership request, header only
	KindData                // data-carrying flit (cache line)
	KindSnoop               // coherence snoop
	KindAck                 // completion / write acknowledgement
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "req"
	case KindData:
		return "data"
	case KindSnoop:
		return "snp"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Flit is the unit of transport. Bufferless routing requires full header
// information on every flit (Section 3.4.3); the fields above the
// bookkeeping section model that header.
type Flit struct {
	ID  uint64
	Src NodeID
	Dst NodeID
	// Kind tells statistics and protocol layers what this flit carries.
	Kind Kind
	// PayloadBytes is the data payload (64 for a cache line, 0 for
	// header-only control flits). Bandwidth figures count payload bytes.
	PayloadBytes int
	// Msg carries the upper-layer message (e.g. a chi.Message); the NoC
	// never inspects it.
	Msg interface{}

	// Created is the cycle the flit was first handed to the network.
	Created sim.Cycle
	// Hops counts ring positions traversed (wire distance in cycles).
	Hops int
	// Deflections counts failed ejections (each costs a full extra lap).
	Deflections int
	// RingChanges counts bridge traversals.
	RingChanges int
	// Corrupted marks a flit damaged by fault injection: it still
	// consumes network bandwidth but the destination's link-level check
	// discards it on arrival (counted in CorruptDrops, never delivered).
	Corrupted bool

	// in-network bookkeeping (current ring only)
	localDst   int // station position to leave the current ring at
	localIface int // interface index at that station
	dir        Direction
	counted    bool // already counted as injected (set on first Send)
	// boarded is the cycle the flit entered its current ring slot; hop
	// accounting is materialised lazily from it (Ring.settleHops) so
	// advance never scans slots.
	boarded sim.Cycle
	// freed guards the network's deterministic free-list against
	// double-release (see Network.ReleaseFlit).
	freed bool
}

// HeaderBytes is the per-flit header overhead in bytes: the price of
// bufferless deflection routing (every flit routes independently).
const HeaderBytes = 16

// LineBytes is the payload of one cache-line data flit.
const LineBytes = 64

// trace kind aliases keep the hot-path call sites terse.
const (
	traceInject  = trace.Inject
	traceDeflect = trace.Deflect
	traceSwap    = trace.Swap
)
