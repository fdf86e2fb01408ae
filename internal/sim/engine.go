// Package sim holds the deterministic building blocks every simulated
// subsystem shares: the cycle type, the one queue (FIFO), the seeded RNG
// streams, the snapshot codec and the FNV digest folds. The
// tick loop itself is noc.Network — it owns the rings and the devices
// attached to them and steps them in a fixed order, so the same seed and
// the same construction order always yield the same cycle-by-cycle
// state.
package sim

// Cycle is a point in simulated time, measured in NoC clock cycles.
type Cycle uint64
