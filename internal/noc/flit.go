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
// 32 bits hold any network by a wide margin: a config builds at most
// config.MaxDevices (4096) devices and config.MaxBridges (256) bridges of
// config.MaxBridgeLegs (16) nodes each.
type NodeID int32

// RingID identifies one ring within a Network.
type RingID int

// Direction is a traversal direction on a ring.
type Direction int8

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
type Kind int8

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
// information on every flit (Section 3.4.3); the exported fields model
// that header and the unexported ones are in-network bookkeeping.
//
// A loaded system holds tens of thousands of flits, so every integer is
// as narrow as its stated bound allows and the fields are ordered widest
// first: 64-bit words, Msg, 32-bit, 16-bit, then bytes and flags, 80
// bytes with no padding on 64-bit platforms.
type Flit struct {
	ID uint64
	// Created is the cycle the flit was first handed to the network.
	Created sim.Cycle
	// Hops counts ring positions traversed (wire distance in cycles). It
	// stays 64-bit: a flit gains a hop every cycle it lives, and a run's
	// cycle budget (experiments.SimSpec.Cycles) has no upper limit.
	Hops int
	// boarded is the cycle the flit entered its current ring slot; hop
	// accounting is materialised lazily from it (Ring.settleHops) so
	// advance never scans slots.
	boarded sim.Cycle
	// Msg carries the upper-layer message (e.g. a chi.Message); the NoC
	// never inspects it.
	Msg interface{}

	// Src and Dst are node IDs (see NodeID for their bound).
	Src NodeID
	Dst NodeID
	// PayloadBytes is the data payload (64 for a cache line, 0 for
	// header-only control flits). Bandwidth figures count payload bytes.
	// At most one transfer: config.MaxLineBytes or config.MaxServingBytes
	// (1 MiB each), and a trace op is refused above traffic.MaxOpBytes.
	PayloadBytes int32
	// Deflections counts failed ejections (each costs a full extra lap of
	// at least two cycles), so it stays below Hops / 2: wrapping it would
	// take one flit more than 2^32 cycles in flight.
	Deflections int32
	// localDst is the station position to leave the current ring at, below
	// config.MaxRingPositions (4096).
	localDst int32
	// mark is the state walk's identity mark (see Snap): 1 + the flit's
	// index in the walk under way, 0 outside one.
	mark uint32
	// RingChanges counts bridge traversals. Forwarding tables have no
	// loops, so a route crosses fewer bridges than the network has rings
	// (config.MaxRings, 64), far inside 16 bits even across fault
	// reroutes.
	RingChanges int16
	// Kind tells statistics and protocol layers what this flit carries
	// (one of four); dir is its direction on the current ring (CW or CCW).
	Kind Kind
	dir  Direction
	// localIface is the interface index at the localDst station (a
	// station has at most two).
	localIface int8
	// Corrupted marks a flit damaged by fault injection: it still
	// consumes network bandwidth but the destination's link-level check
	// discards it on arrival (counted in CorruptDrops, never delivered).
	Corrupted bool
	counted   bool // already counted as injected (set on first Send)
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
