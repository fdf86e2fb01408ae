package fault

import (
	"encoding/json"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

func TestParseScheduleAcceptsValid(t *testing.T) {
	data := []byte(`{
		"seed": 7,
		"watchdogCycles": 500,
		"events": [
			{"at": 100, "kind": "kill-bridge", "bridge": "br", "repairAt": 300},
			{"at": 50, "kind": "stall-station", "ring": 1, "position": 4, "cycles": 20},
			{"at": 60, "kind": "drop-flit"},
			{"at": 70, "kind": "corrupt-flit"}
		]
	}`)
	s, err := ParseSchedule(data)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if s.Empty() {
		t.Fatal("schedule with events reported Empty")
	}
	if len(s.Events) != 4 || s.Seed != 7 || s.WatchdogCycles != 500 {
		t.Fatalf("bad decode: %+v", s)
	}
}

func TestParseScheduleRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     `{"events":[{"at":1,"kind":"melt-core"}]}`,
		"unknown field":    `{"events":[{"at":1,"kind":"drop-flit","oops":true}]}`,
		"missing bridge":   `{"events":[{"at":1,"kind":"kill-bridge"}]}`,
		"repair before at": `{"events":[{"at":10,"kind":"kill-bridge","bridge":"b","repairAt":5}]}`,
		"zero stall":       `{"events":[{"at":1,"kind":"stall-station","cycles":0}]}`,
		"negative ring":    `{"events":[{"at":1,"kind":"stall-station","ring":-1,"cycles":5}]}`,
		"trailing data":    `{"events":[]} {"events":[]}`,
		"not json":         `kill all bridges`,
	}
	for name, in := range cases {
		if _, err := ParseSchedule([]byte(in)); err == nil {
			t.Errorf("%s: ParseSchedule accepted %q", name, in)
		}
	}
}

func TestEmptySchedule(t *testing.T) {
	s, err := ParseSchedule([]byte(`{}`))
	if err != nil {
		t.Fatalf("ParseSchedule({}): %v", err)
	}
	if !s.Empty() {
		t.Fatal("zero schedule not Empty")
	}
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule not Empty")
	}
}

// pump is a minimal endpoint: it drains its eject queue and sends a
// fixed number of flits to a peer.
type pump struct {
	noc.Port
	dst  noc.NodeID
	left int

	Received int
}

func (p *pump) Tick(now sim.Cycle) {
	for p.Iface.Recv() != nil {
		p.Received++
	}
	if p.left > 0 {
		f := p.Net.NewFlit(p.Node(), p.dst, noc.KindData, 64)
		if p.Iface.Send(f) {
			p.left--
		}
	}
}

// buildRig wires two full rings joined by one RBRGL2 ("br"), with a
// flit pump on each ring targeting the other side.
func buildRig(flitsPerPump int) (*noc.Network, *pump, *pump) {
	net := noc.NewNetwork("fault-rig")
	r0 := net.AddRing(8, true)
	r1 := net.AddRing(8, true)
	s0a, s0b := r0.AddStation(0), r0.AddStation(4)
	s1a, s1b := r1.AddStation(0), r1.AddStation(4)
	noc.NewRBRGL2(net, "br", noc.DefaultRBRGL2Config(), s0b, s1b)

	a := &pump{left: flitsPerPump}
	b := &pump{left: flitsPerPump}
	a.Port = net.Plug(a, "a", s0a)
	b.Port = net.Plug(b, "b", s1a)
	a.dst, b.dst = b.Node(), a.Node()
	net.MustFinalize()
	return net, a, b
}

func TestInjectorKillAndRepair(t *testing.T) {
	net, a, b := buildRig(200)
	sched := &Schedule{
		WatchdogCycles: 400,
		Events: []Event{
			{At: 100, Kind: KillBridge, Bridge: "br", RepairAt: 600},
		},
	}
	inj, err := NewInjector(net, sched, 1)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	killed := false
	for i := 0; i < 20000; i++ {
		net.Tick(sim.Cycle(i))
		if i == 200 {
			if len(net.FailedBridges()) != 1 {
				t.Fatal("bridge not failed after kill event")
			}
			killed = true
		}
		if err := net.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if a.left == 0 && b.left == 0 && net.InFlight() == 0 && inj.Pending() == 0 {
			break
		}
	}
	if !killed {
		t.Fatal("run ended before the kill event")
	}
	if len(net.FailedBridges()) != 0 {
		t.Fatal("bridge still failed after repair event")
	}
	if inj.FaultsApplied != 1 || inj.RepairsApplied != 1 {
		t.Fatalf("applied=%d repairs=%d, want 1/1", inj.FaultsApplied, inj.RepairsApplied)
	}
	if net.InFlight() != 0 {
		t.Fatalf("network did not drain: in-flight %d", net.InFlight())
	}
	if a.Received == 0 || b.Received == 0 {
		t.Fatalf("no traffic delivered across the fault window (a=%d b=%d)", a.Received, b.Received)
	}
	if net.InjectedFlits != net.DeliveredFlits+net.DroppedFlits {
		t.Fatalf("drained network violates conservation: inj=%d del=%d drop=%d",
			net.InjectedFlits, net.DeliveredFlits, net.DroppedFlits)
	}
}

// runDropCorrupt executes one seeded run with random drop/corrupt events
// and returns the counter tuple that must be bit-identical across runs.
func runDropCorrupt(seed uint64) [6]uint64 {
	net, a, b := buildRig(300)
	events := make([]Event, 0, 40)
	for at := uint64(50); at < 1050; at += 50 {
		events = append(events, Event{At: at, Kind: DropFlit})
		events = append(events, Event{At: at + 25, Kind: CorruptFlit})
	}
	inj, err := NewInjector(net, &Schedule{Seed: 3, WatchdogCycles: 600, Events: events}, seed)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 30000; i++ {
		net.Tick(sim.Cycle(i))
		if a.left == 0 && b.left == 0 && net.InFlight() == 0 && inj.Pending() == 0 {
			break
		}
	}
	return [6]uint64{
		net.InjectedFlits, net.DeliveredFlits, net.DroppedFlits,
		net.FaultDrops, net.CorruptDrops, inj.FaultsApplied,
	}
}

func TestInjectorDeterministic(t *testing.T) {
	first := runDropCorrupt(99)
	for i := 0; i < 3; i++ {
		if got := runDropCorrupt(99); got != first {
			t.Fatalf("run %d diverged: %v != %v", i, got, first)
		}
	}
	if first[3] == 0 || first[4] == 0 {
		t.Fatalf("expected both fault drops and corrupt drops, got %v", first)
	}
}

func TestNewInjectorRejectsUnknownBridge(t *testing.T) {
	net, _, _ := buildRig(1)
	_, err := NewInjector(net, &Schedule{Events: []Event{{At: 1, Kind: KillBridge, Bridge: "nope"}}}, 0)
	if err == nil {
		t.Fatal("NewInjector accepted unknown bridge name")
	}
}

func FuzzParseSchedule(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"events":[{"at":1,"kind":"drop-flit"}]}`))
	f.Add([]byte(`{"seed":9,"watchdogCycles":100,"events":[{"at":5,"kind":"kill-bridge","bridge":"b","repairAt":9}]}`))
	f.Add([]byte(`{"events":[{"at":2,"kind":"stall-station","ring":1,"position":3,"cycles":8}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		// An accepted schedule must survive a validate round-trip: it
		// re-marshals to JSON that parses and validates again.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted schedule: %v", err)
		}
		if _, err := ParseSchedule(out); err != nil {
			t.Fatalf("round-trip rejected: %v\ninput: %q\nround: %q", err, data, out)
		}
	})
}
