// Package trace provides structured event tracing for the NoC: a bounded
// ring buffer of typed events (injections, ejections, deflections,
// bridge transfers, deadlock-resolution activity) that costs nothing when
// no tracer is attached and supports filtered text dumps when one is.
// It is the debugging instrument the simulator's own development used to
// chase the cross-ring deadlocks of Section 4.4.
package trace

import (
	"fmt"
	"strings"

	"chipletnoc/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// Inject: a flit left an inject queue for a ring slot.
	Inject Kind = iota
	// Eject: a flit left a ring slot into an eject queue.
	Eject
	// Deliver: a flit reached its final destination.
	Deliver
	// Deflect: a flit failed to eject and continues around the ring.
	Deflect
	// BridgeHop: a flit changed rings through a bridge.
	BridgeHop
	// DRMEnter / DRMExit: a bridge interface toggled deadlock-resolution
	// mode.
	DRMEnter
	DRMExit
	// Swap: an ejection handed its freed slot to an inject head.
	Swap
	// Fault: an injected failure (bridge kill/repair, station stall,
	// flit drop/corruption) took effect.
	Fault
	// Reroute: routing tables were rebuilt and a live flit's exit point
	// changed, or a flit was found unroutable.
	Reroute
	// Retry: the CHI layer re-issued a timed-out transaction (or aborted
	// it after exhausting its retry budget).
	Retry
	// WatchdogDrop: the per-flit age watchdog removed a livelocked or
	// stranded flit from the network.
	WatchdogDrop
	// Stall: an orchestrator held admitted work back (serving watermark
	// backpressure — requests waiting while in-flight batches drain).
	Stall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	return [...]string{"inject", "eject", "deliver", "deflect", "bridge", "drm+", "drm-", "swap",
		"fault", "reroute", "retry", "wdog", "stall"}[k]
}

// Event is one traced occurrence.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	// FlitID identifies the flit (0 for non-flit events like DRM).
	FlitID uint64
	// Where names the component (station position, bridge, interface).
	Where string
	// Detail is optional extra context.
	Detail string
}

// String renders one event line.
func (e Event) String() string {
	s := fmt.Sprintf("%8d %-7s %-20s", e.Cycle, e.Kind, e.Where)
	if e.FlitID != 0 {
		s += fmt.Sprintf(" flit=%d", e.FlitID)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer is a bounded ring buffer of events. The zero value is unusable;
// construct with New.
type Tracer struct {
	events []Event
	next   int
	filled bool

	Total uint64 // events recorded
}

// New creates a tracer holding the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Record appends an event, overwriting the oldest once full.
func (t *Tracer) Record(e Event) {
	t.Total++
	t.events[t.next] = e
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.filled = true
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t.filled {
		return len(t.events)
	}
	return t.next
}

// Events returns retained events oldest-first.
func (t *Tracer) Events() []Event {
	if !t.filled {
		out := make([]Event, t.next)
		copy(out, t.events[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Dump renders the retained events as text, optionally restricted to one
// flit (flitID 0 dumps everything).
func (t *Tracer) Dump(flitID uint64) string {
	var b strings.Builder
	for _, e := range t.Events() {
		if flitID != 0 && e.FlitID != flitID {
			continue
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountByKind tallies retained events per kind.
func (t *Tracer) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range t.Events() {
		out[e.Kind]++
	}
	return out
}
