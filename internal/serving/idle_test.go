package serving

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// dumpState renders everything reachable from v — unexported fields,
// slices, maps (key-sorted), pointers followed once each — into b. The
// serving devices have no snapshot codec, so this reflective walk is
// their state encoding: a field added later is covered without anyone
// remembering to. The fabric and the immutable spec are opaque; what a
// device can do to the fabric is recorded separately by ifaceState.
func dumpState(b *strings.Builder, v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		switch v.Type() {
		case reflect.TypeOf((*noc.Network)(nil)), reflect.TypeOf((*noc.NodeInterface)(nil)),
			reflect.TypeOf((*config.ServingSpec)(nil)), reflect.TypeOf((*Engine)(nil)):
			b.WriteString("opaque")
			return
		}
		if seen[v.Pointer()] {
			fmt.Fprintf(b, "@%x", v.Pointer())
			return
		}
		seen[v.Pointer()] = true
		fmt.Fprintf(b, "&%x", v.Pointer())
		dumpState(b, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		dumpState(b, v.Elem(), seen)
	case reflect.Struct:
		b.WriteString("{")
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(v.Type().Field(i).Name + ":")
			dumpState(b, v.Field(i), seen)
			b.WriteString(" ")
		}
		b.WriteString("}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpState(b, v.Index(i), seen)
			b.WriteString(",")
		}
		b.WriteString("]")
	case reflect.Map:
		// Values are walked in key order, so which occurrence of a shared
		// pointer is expanded does not depend on map iteration order.
		keys := v.MapKeys()
		names := make([]string, len(keys))
		for i, k := range keys {
			var e strings.Builder
			dumpState(&e, k, seen)
			names[i] = e.String()
		}
		sort.Sort(byName{names, keys})
		b.WriteString("map[")
		for i, k := range keys {
			b.WriteString(names[i] + "=>")
			dumpState(b, v.MapIndex(k), seen)
			b.WriteString(",")
		}
		b.WriteString("]")
	case reflect.Func, reflect.Chan:
		// none carry simulated state
	case reflect.Bool:
		fmt.Fprint(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%b", v.Float())
	case reflect.String:
		fmt.Fprintf(b, "%q", v.String())
	default:
		panic("dumpState: unhandled kind " + v.Kind().String())
	}
}

// byName sorts map keys by their rendering.
type byName struct {
	names []string
	keys  []reflect.Value
}

func (s byName) Len() int           { return len(s.names) }
func (s byName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s byName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func ifaceState(b *strings.Builder, ni *noc.NodeInterface) {
	fmt.Fprintf(b, " iface{inj=%d ej=%d space=%d injected=%d ejected=%d}",
		ni.InjectLen(), ni.EjectLen(), ni.InjectSpace(), ni.Injected, ni.EjectedFlits)
}

func engineState(e *Engine) string {
	var b strings.Builder
	dumpState(&b, reflect.ValueOf(e).Elem(), map[uintptr]bool{})
	ifaceState(&b, e.iface)
	return b.String()
}

// orchState covers the orchestrator, with the stall cycles it slept
// through before end counted, and the two things it touches on its
// engines: the queues it appends to and the done lists it drains. The
// orchestrator itself is left as it is.
func orchState(o *Orchestrator, end sim.Cycle) string {
	var b strings.Builder
	seen := map[uintptr]bool{}
	settled := *o
	settled.stallCycles += o.stalledBefore(end)
	settled.lastTick = max(o.lastTick, end)
	dumpState(&b, reflect.ValueOf(&settled).Elem(), seen)
	for _, e := range o.engines {
		dumpState(&b, reflect.ValueOf(e.queue), seen)
		dumpState(&b, reflect.ValueOf(e.done), seen)
		fmt.Fprint(&b, e.PeakQueue)
	}
	return b.String()
}

// TestIdleUntilHonest is the invariant the tick engine's device gate
// rests on, for the serving engines and the orchestrator across the
// load range (far below the knee, at it, far beyond): whenever
// IdleUntil(now) > now, Tick(now) must leave every reachable field
// unchanged and send, receive and release no flit. After every cycle of
// the gated run the test asks each device about the next cycle and, when
// it claims to be idle, ticks it anyway — an extra tick that perturbs
// nothing if the claim is true, so the run (checked against an
// undisturbed twin at the end) carries on as if unobserved. The
// orchestrator is compared settled through the claimed cycle: a stall it
// sleeps through is counted later, so an idle tick may count it now, but
// a stall counted twice, or not at all, fails here.
func TestIdleUntilHonest(t *testing.T) {
	for _, run := range []struct {
		load    float64
		process string
		cycles  uint64
	}{{1, "poisson", 3000}, {24, "poisson", 1500}, {24, "bursty", 1500}, {400, "poisson", 500}} {
		load, process := run.load, run.process
		spec := quickSpec(t)
		spec.Arrival = config.ServingArrivalSpec{Process: process}
		spec.ApplyDefaults(true)
		spec.Loads = []float64{load}
		spec.Cycles = run.cycles
		twin := runPoint(t, spec, 0)

		sys, err := Build(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		engIdle, engBusy, orchIdle, orchBusy, orchStalled := 0, 0, 0, 0, 0
		for c := uint64(0); c < spec.Cycles; c++ {
			sys.Net.Run(1)
			next := sim.Cycle(sys.Net.Ticks())
			for _, e := range sys.Engines {
				if e.IdleUntil(next) <= next {
					engBusy++
					continue
				}
				engIdle++
				before := engineState(e)
				e.Tick(next)
				if after := engineState(e); after != before {
					t.Fatalf("load %v %s: %s said idle at cycle %d but its Tick changed state\nbefore: %s\n after: %s", load, process, e.name, next, before, after)
				}
			}
			if w := sys.Orch.IdleUntil(next); w <= next {
				orchBusy++
				continue
			}
			orchIdle++
			if sys.Orch.stalled {
				orchStalled++
			}
			before := orchState(sys.Orch, next+1)
			sys.Orch.Tick(next)
			if after := orchState(sys.Orch, next+1); after != before {
				t.Fatalf("load %v %s: orchestrator said idle at cycle %d but its Tick changed state\nbefore: %s\n after: %s", load, process, next, before, after)
			}
		}
		got := fingerprint{
			admitted: sys.Orch.Admitted, completed: sys.Orch.Completed, stalls: sys.Orch.StallCycles(),
			stream: sys.Orch.StreamDigest(), sketch: sys.Orch.Sketch.Digest(),
		}
		if got != twin {
			t.Fatalf("load %v %s: the extra idle ticks perturbed the run: %+v != %+v", load, process, got, twin)
		}
		if engIdle == 0 || engBusy == 0 || orchBusy == 0 || (load < 100 && orchIdle == 0) || (load > 1 && orchStalled == 0) {
			t.Fatalf("load %v %s: property not exercised (engines %d idle/%d busy, orchestrator %d idle/%d busy, %d idle stalled)",
				load, process, engIdle, engBusy, orchIdle, orchBusy, orchStalled)
		}
	}
}

// TestArrivalDrawAheadEqualsStepping: drawing the process ahead to its
// next arrival takes the same draws in the same order as one step per
// cycle, for both processes, below and above one arrival per cycle — so
// a run whose orchestrator is only ticked on the cycles nextAt names
// admits exactly the requests a cycle-by-cycle run does. A process that
// can never produce an arrival answers Never instead of stepping forever.
func TestArrivalDrawAheadEqualsStepping(t *testing.T) {
	const cycles = 100000
	for _, process := range []string{"poisson", "bursty"} {
		for _, load := range []float64{1, 24, 700, 3500} {
			spec := quickSpec(t)
			spec.Arrival = config.ServingArrivalSpec{Process: process}
			spec.ApplyDefaults(true)
			mk := func() *arrivalProcess { return newArrivalProcess(spec, load, sim.NewRNG(99).Derive(7)) }

			stepped, polled, jumped := mk(), mk(), mk()
			want := make([]int, cycles)
			total := 0
			for c := range want {
				want[c] = stepped.step()
				total += want[c]
			}
			if total == 0 {
				t.Fatalf("%s load %v: no arrival in %d cycles", process, load, cycles)
			}
			// Polled every cycle, asked for the next arrival at odd moments.
			for c := 0; c < cycles; c++ {
				if c%3 == 0 {
					polled.nextAt()
				}
				if got := polled.take(sim.Cycle(c)); got != want[c] {
					t.Fatalf("%s load %v: cycle %d admits %d, stepping admits %d", process, load, c, got, want[c])
				}
			}
			// Visited only on the cycles nextAt names.
			c := sim.Cycle(0)
			for {
				at := jumped.nextAt()
				if at >= cycles {
					break
				}
				for ; c < at; c++ {
					if want[c] != 0 {
						t.Fatalf("%s load %v: draw-ahead skipped the %d arrivals of cycle %d", process, load, want[c], c)
					}
				}
				if got := jumped.take(at); got != want[at] || got == 0 {
					t.Fatalf("%s load %v: cycle %d admits %d, stepping admits %d", process, load, at, got, want[at])
				}
				c = at + 1
			}
		}
		spec := quickSpec(t)
		spec.Arrival = config.ServingArrivalSpec{Process: process}
		spec.ApplyDefaults(true)
		if at := newArrivalProcess(spec, 0, sim.NewRNG(1)).nextAt(); at != noc.Never {
			t.Fatalf("%s at zero load: next arrival at %d, want never", process, at)
		}
	}
}
