package workloads

import (
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/traffic"
)

// ReplayRig is the small rig a trace replays against: one 16-position
// full ring, an HBM stack at position 8 and, at position 0, a replayer of
// ops with a 32-entry transaction table.
func ReplayRig(ops []traffic.TraceOp) (*noc.Network, *traffic.Replayer) {
	net := noc.NewNetwork("replay-rig")
	ring := net.AddRing(16, true)
	ctl := mem.New(net, "hbm", mem.HBMStack(), ring.AddStation(8))
	rep := traffic.NewReplayer(net, "replay", ops, 32, traffic.FixedTarget(ctl.Node()), ring.AddStation(0))
	net.MustFinalize()
	return net, rep
}

// LayerTrace converts one network layer into per-core NoC traces: the
// layer's memory traffic, spread over the cores, issued at the rate the
// layer's roofline phase implies. This is the paper's own AI methodology
// ("we use AI-processor's instruction trace record as NoC's input")
// driven from the MLPerf layer models instead of a proprietary recording.
//
// bytesPerCore is split into line-sized operations; issueBytesPerCycle is
// the aggregate demand rate (across all cores) the compute schedule
// generates — for a compute-bound layer that is FLOP-time-limited, for a
// memory-bound layer it exceeds what the NoC can carry and the replay
// slips.
func LayerTrace(l Layer, cores int, lineBytes int, issueBytesPerCycle float64, writeFraction float64) [][]traffic.TraceOp {
	if cores <= 0 || lineBytes <= 0 || issueBytesPerCycle <= 0 {
		panic("workloads: LayerTrace needs positive geometry")
	}
	bytesPerCore := l.Bytes / float64(cores)
	opsPerCore := int(bytesPerCore / float64(lineBytes))
	if opsPerCore < 1 {
		opsPerCore = 1
	}
	// Inter-op gap so that all cores together demand issueBytesPerCycle.
	perCoreRate := issueBytesPerCycle / float64(cores) // bytes per cycle per core
	gap := float64(lineBytes) / perCoreRate
	traces := make([][]traffic.TraceOp, cores)
	// Writes are interleaved deterministically at the requested
	// fraction.
	writeEvery := 0
	if writeFraction > 0 {
		writeEvery = int(1/writeFraction + 0.5)
	}
	for c := 0; c < cores; c++ {
		ops := make([]traffic.TraceOp, 0, opsPerCore)
		base := uint64(c) << 32
		for i := 0; i < opsPerCore; i++ {
			w := writeEvery > 0 && i%writeEvery == writeEvery-1
			ops = append(ops, traffic.TraceOp{
				Cycle: uint64(float64(i) * gap),
				Write: w,
				Addr:  base + uint64(i*lineBytes),
				Size:  lineBytes,
			})
		}
		traces[c] = ops
	}
	return traces
}

// LayerKind classifies a layer by its roofline phase on an accelerator.
type LayerKind int

// Layer phases.
const (
	ComputeBound LayerKind = iota
	MemoryBound
	FabricBound
)

// Classify determines which resource bounds the layer on the given
// accelerator.
func Classify(l Layer, acc Accelerator) LayerKind {
	compute := l.FLOPs / (acc.PeakFLOPS * acc.Efficiency)
	memory := l.Bytes / acc.MemBW
	fabric := l.Bytes * acc.ReuseFactor / acc.NoCBW
	switch {
	case compute >= memory && compute >= fabric:
		return ComputeBound
	case memory >= fabric:
		return MemoryBound
	default:
		return FabricBound
	}
}

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	return [...]string{"compute-bound", "memory-bound", "fabric-bound"}[k]
}
