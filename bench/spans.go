package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the simulator itself carries no spans yet). Layer is the
// module the call enters; Parent is the index of the span that caused
// it, -1 for a root; Op ties the spans of one operation together.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
	Op     int
	Lane   int // the client or goroutine the span ran on
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name, layer string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.epoch), End: -1, Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.epoch)
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, measured the
// same way whether or not a tracer is attached.
func (t *tracer) do(name, layer string, parent, op, lane int, fn func()) time.Duration {
	id := t.begin(name, layer, parent, op, lane)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// when they ran on different lanes; covered time counts once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if b < a {
				continue
			}
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.b <= edge {
				continue
			}
			if v.a < edge {
				v.a = edge
			}
			covered += v.b - v.a
			edge = v.b
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfMS sums self time per layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += ms(d)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Lane,
			Args: map[string]any{"workload": t.workload, "op": s.Op, "span": i, "parent": s.Parent, "self_us": us(self[i])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
