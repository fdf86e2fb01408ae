package traffic

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// TraceOp is one recorded memory operation. The paper's AI-Processor
// evaluation drives the NoC from "the AI-processor's instruction trace
// record"; Replayer is that methodology: a requester that issues a
// pre-recorded operation stream with its original timing.
type TraceOp struct {
	// Cycle is the earliest cycle the operation may issue.
	Cycle uint64
	// Write selects the operation class.
	Write bool
	// Addr is the line-aligned address; Size the transfer bytes.
	Addr uint64
	Size int
}

// MaxOpBytes bounds one trace op's transfer, the same 1 MiB that
// config.MaxLineBytes puts on a configured line. A replayed op becomes one
// chi.Message whose 32-bit Size must hold it, and it is queued as one data
// beat per chi.BeatBytes, so an unbounded size from an untrusted trace
// would exhaust memory.
const MaxOpBytes = 1 << 20

// ParseTrace reads a text trace: one op per line,
// "<cycle> R|W <hex addr> <size>", '#' comments and blank lines ignored.
// Sizes must lie in [1, MaxOpBytes] and cycles must not decrease.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var cyc, addr uint64
		var op string
		var size int
		if _, err := fmt.Sscanf(line, "%d %1s %x %d", &cyc, &op, &addr, &size); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", lineNo, err)
		}
		if op != "R" && op != "W" {
			return nil, fmt.Errorf("traffic: trace line %d: op %q must be R or W", lineNo, op)
		}
		if size <= 0 {
			return nil, fmt.Errorf("traffic: trace line %d: non-positive size", lineNo)
		}
		if size > MaxOpBytes {
			return nil, fmt.Errorf("traffic: trace line %d: size %d exceeds the limit of %d", lineNo, size, MaxOpBytes)
		}
		if len(ops) > 0 && cyc < ops[len(ops)-1].Cycle {
			return nil, fmt.Errorf("traffic: trace line %d: cycles must be non-decreasing", lineNo)
		}
		ops = append(ops, TraceOp{Cycle: cyc, Write: op == "W", Addr: addr, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	return ops, nil
}

// FormatTrace writes ops in the ParseTrace format.
func FormatTrace(w io.Writer, ops []TraceOp) error {
	for _, op := range ops {
		cls := "R"
		if op.Write {
			cls = "W"
		}
		if _, err := fmt.Fprintf(w, "%d %s %x %d\n", op.Cycle, cls, op.Addr, op.Size); err != nil {
			return err
		}
	}
	return nil
}

// Replayer issues a recorded operation stream against the NoC with its
// original timing (stalling when the transaction table back-pressures).
type Replayer struct {
	noc.Port

	ops  []TraceOp
	next int

	tracker  *chi.Tracker
	sendq    sim.FIFO[*noc.Flit]
	targetOf func(addr uint64) noc.NodeID

	Issued, Completed uint64
	BytesMoved        uint64
	// SlipCycles accumulates how far behind the recorded schedule the
	// replay ran (a congestion measure).
	SlipCycles uint64
}

// NewReplayer attaches a trace replayer to a station.
func NewReplayer(net *noc.Network, name string, ops []TraceOp, outstanding int,
	targetOf func(addr uint64) noc.NodeID, st *noc.CrossStation) *Replayer {
	if targetOf == nil {
		panic("traffic: Replayer needs a target map")
	}
	r := &Replayer{
		ops:      ops,
		tracker:  chi.NewTracker(outstanding),
		targetOf: targetOf,
	}
	r.Port = net.Plug(r, name, st)
	return r
}

// Done reports whether the whole trace has issued and completed.
func (r *Replayer) Done() bool {
	return r.next >= len(r.ops) && r.tracker.Outstanding() == 0 && r.sendq.Len() == 0
}

// Tick implements noc.Device.
func (r *Replayer) Tick(now sim.Cycle) {
	r.tracker.Settle(r.Net, r.Iface, nil, &r.sendq, r.finish)
	r.Iface.SendAll(&r.sendq)
	// Issue trace ops whose recorded time has come.
	for r.next < len(r.ops) && r.sendq.Len() == 0 {
		op := r.ops[r.next]
		if uint64(now) < op.Cycle {
			return
		}
		if r.tracker.Full() {
			r.SlipCycles++
			return
		}
		opc := chi.ReadNoSnp
		if op.Write {
			opc = chi.WriteNoSnp
		}
		dst := r.targetOf(op.Addr)
		if dst == r.Node() {
			r.next++
			continue
		}
		m := chi.NewMsg(r.Net, chi.Message{Op: opc, Addr: op.Addr, Requester: r.Node(), Size: int32(op.Size)})
		if !r.tracker.Open(m) {
			return
		}
		r.sendq.Push(m.NewFlit(r.Net, r.Node(), dst))
		if !op.Write {
			m.BeatsLeft = int32(m.Beats())
		}
		m.IssuedAt = uint64(now)
		if uint64(now) > op.Cycle {
			r.SlipCycles += uint64(now) - op.Cycle
		}
		r.Issued++
		r.next++
		r.Iface.SendAll(&r.sendq)
	}
}

// IdleUntil implements noc.IdleUntiler: with nothing ejected and no beat
// to send, Tick does nothing until the next recorded operation's cycle
// (never again once the trace is exhausted). From that cycle on it is
// awake — a full table counts SlipCycles every tick.
func (r *Replayer) IdleUntil(now sim.Cycle) sim.Cycle {
	if r.Iface.EjectLen() > 0 || r.sendq.Len() > 0 {
		return now
	}
	if r.next >= len(r.ops) {
		return noc.Never
	}
	if at := sim.Cycle(r.ops[r.next].Cycle); at > now {
		return at
	}
	return now
}

// finish counts a transaction Settle retired.
func (r *Replayer) finish(req *chi.Message) {
	r.Completed++
	r.BytesMoved += uint64(req.Bytes())
}
