// Package phys models the physical-implementation constraints of Section
// 3.3: the two wire-fabric implementations of Table 4, the
// distance-per-cycle metric that drove the co-design, and first-order
// area and energy models used by the SPECpower experiment (Table 6) and
// the bufferless-vs-buffered ablation.
//
// The constants are calibration values chosen to reproduce the paper's
// qualitative trade-offs (high-speed wire jumps 3x further per cycle and
// frees its stride slots for SRAM; bufferless stations are several times
// smaller and lower-energy than buffered routers), not foundry data,
// which the paper does not disclose.
package phys

import "math"

// FabricClass selects one of the two metal-fabric implementations of
// Table 4.
type FabricClass int

// The two wire fabrics of Table 4.
const (
	// HighDense is the Mx-My layer fabric: minimal width/pitch, but a
	// flit travels only 600 um per 3 GHz cycle and the wires cannot be
	// placed over other circuits.
	HighDense FabricClass = iota
	// HighSpeed is the My layer fabric: 3x width, 3.5x pitch, 2.5x bus
	// width, 1800 um per cycle, and its 200 um stride slots can host
	// SRAM under the wires.
	HighSpeed
)

// FabricSpec is one row of Table 4 (relative geometry, absolute reach).
type FabricSpec struct {
	Class FabricClass
	// WidthX and PitchX are relative to the high-dense fabric.
	WidthX, PitchX float64
	// BusWidthX is the relative bus width achievable in the same track
	// budget.
	BusWidthX float64
	// JumpUm is the distance in micrometres a flit travels in one cycle
	// at the 3 GHz target frequency.
	JumpUm float64
	// StrideUm is the length of the repeater island per jump; for
	// over-circuit fabrics the rest of each jump is a stride slot that
	// SRAM blocks occupy beneath the wires (Figure 6).
	StrideUm float64
	// OverCircuit reports whether other logic can be placed under the
	// fabric.
	OverCircuit bool
}

// Spec returns the Table 4 row for the class.
func Spec(c FabricClass) FabricSpec {
	switch c {
	case HighDense:
		return FabricSpec{Class: HighDense, WidthX: 1, PitchX: 1, BusWidthX: 1, JumpUm: 600, StrideUm: 0, OverCircuit: false}
	case HighSpeed:
		return FabricSpec{Class: HighSpeed, WidthX: 3, PitchX: 3.5, BusWidthX: 2.5, JumpUm: 1800, StrideUm: 200, OverCircuit: true}
	default:
		panic("phys: unknown fabric class")
	}
}

// ClockGHz is the NoC timing-closure target from Section 3.3.
const ClockGHz = 3.0

// PositionsForSpan converts a physical span into ring positions (pipeline
// stages): the distance-per-cycle metric. A span shorter than one jump
// still costs one position.
func (s FabricSpec) PositionsForSpan(spanUm float64) int {
	if spanUm <= 0 {
		return 0
	}
	return int(math.Ceil(spanUm / s.JumpUm))
}

// WireAreaMm2 estimates the metal footprint of a loop of the given length
// and flit width. Bus tracks scale with pitch and flit bits; the
// high-dense fabric's footprint is "dead" area (nothing beneath it) while
// the high-speed fabric's is recoverable, which EffectiveAreaMm2 exposes.
func (s FabricSpec) WireAreaMm2(loopUm float64, flitBits int) float64 {
	// Base track pitch 0.1 um for the dense fabric at x1.
	const basePitchUm = 0.1
	widthUm := basePitchUm * s.PitchX * float64(flitBits) / s.BusWidthX
	return loopUm * widthUm / 1e6
}

// EffectiveAreaMm2 is the floorplan area actually lost to the fabric.
// The high-dense fabric is nearly continuous metal that nothing can sit
// under, so its whole footprint is dead area; the high-speed fabric only
// blocks its repeater islands (StrideUm per jump) — the spans between
// them host SRAM (Figure 6).
func (s FabricSpec) EffectiveAreaMm2(loopUm float64, flitBits int) float64 {
	a := s.WireAreaMm2(loopUm, flitBits)
	if !s.OverCircuit {
		return a
	}
	blocked := s.StrideUm / s.JumpUm
	return a * blocked
}

// AreaModel collects station/router footprints for the area-efficiency
// KPI (Section 2.2) and the buffered-baseline comparison.
type AreaModel struct {
	// BufferlessStationMm2 is one cross station (no VCs, no allocators).
	BufferlessStationMm2 float64
	// BufferedRouterMm2 is a wormhole router with VC buffers.
	BufferedRouterMm2 float64
	// BufferEntryMm2 is one flit-wide queue entry (inject/eject/bridge).
	BufferEntryMm2 float64
	// BridgeL1Mm2 and BridgeL2Mm2 are the ring-bridge footprints.
	BridgeL1Mm2, BridgeL2Mm2 float64
}

// DefaultAreaModel returns the calibration used across experiments.
func DefaultAreaModel() AreaModel {
	return AreaModel{
		BufferlessStationMm2: 0.020,
		BufferedRouterMm2:    0.110, // VC buffers + allocators + crossbar
		BufferEntryMm2:       0.001,
		BridgeL1Mm2:          0.045,
		BridgeL2Mm2:          0.090,
	}
}

// NoCArea sums the station/bridge area of a network configuration.
func (m AreaModel) NoCArea(stations, bufferEntries, l1Bridges, l2Bridges int) float64 {
	return float64(stations)*m.BufferlessStationMm2 +
		float64(bufferEntries)*m.BufferEntryMm2 +
		float64(l1Bridges)*m.BridgeL1Mm2 +
		float64(l2Bridges)*m.BridgeL2Mm2
}

// BufferedNoCArea is the same network built from buffered routers.
func (m AreaModel) BufferedNoCArea(routers, bufferEntries int) float64 {
	return float64(routers)*m.BufferedRouterMm2 + float64(bufferEntries)*m.BufferEntryMm2
}

// EnergyModel holds per-event energies for the NoC power estimate.
// Values are picojoules.
type EnergyModel struct {
	// WirePJPerBitMm is the signalling energy of moving one bit 1 mm.
	WirePJPerBitMm float64
	// HopPJ is the fixed per-flit station pass-through cost.
	HopPJ float64
	// BufferPJPerBit is one write+read of a bit through a queue entry.
	BufferPJPerBit float64
	// RouterPJ is the per-flit arbitration/VC-allocation cost of a
	// buffered router (zero for the bufferless station).
	RouterPJ float64
	// LinkPJPerBit is the die-to-die SerDes/parallel-IO energy per bit.
	LinkPJPerBit float64
}

// DefaultEnergyModel returns the calibration used across experiments.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		WirePJPerBitMm: 0.08,
		HopPJ:          0.4,
		BufferPJPerBit: 0.05,
		RouterPJ:       2.0,
		LinkPJPerBit:   0.9,
	}
}

// TrafficEnergy summarises a run for the energy model.
type TrafficEnergy struct {
	// FlitHops is the total slot movements of occupied slots.
	FlitHops uint64
	// FlitBits is the wire width (header+payload) in bits.
	FlitBits int
	// HopDistanceMm is the physical distance of one hop.
	HopDistanceMm float64
	// BufferedEntries counts queue insertions (inject+eject+bridges).
	BufferedEntries uint64
	// RouterTraversals counts buffered-router passages (baselines only).
	RouterTraversals uint64
	// LinkBits counts die-to-die transferred bits.
	LinkBits uint64
}

// TotalPJ evaluates the model on a run summary.
func (e EnergyModel) TotalPJ(t TrafficEnergy) float64 {
	wire := float64(t.FlitHops) * float64(t.FlitBits) * t.HopDistanceMm * e.WirePJPerBitMm
	hops := float64(t.FlitHops) * e.HopPJ
	buf := float64(t.BufferedEntries) * float64(t.FlitBits) * e.BufferPJPerBit
	rtr := float64(t.RouterTraversals) * e.RouterPJ
	link := float64(t.LinkBits) * e.LinkPJPerBit
	return wire + hops + buf + rtr + link
}
