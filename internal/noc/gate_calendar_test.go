package noc

import (
	"bytes"
	"fmt"
	"testing"

	"chipletnoc/internal/sim"
)

// napper is a test device with a scripted idle contract: it drains its
// eject queue, and otherwise sleeps until the cycle the test last gave it.
// rest, when set, chooses that cycle after every tick.
type napper struct {
	Port
	until sim.Cycle
	ticks []sim.Cycle
	rest  func(now sim.Cycle) sim.Cycle
}

func newNapper(net *Network, st *CrossStation, name string) *napper {
	d := &napper{until: Never}
	d.Port = net.Plug(d, name, st)
	return d
}

func (d *napper) SnapState(s *Snap) { s.Codec.U64((*uint64)(&d.until)) }

func (d *napper) Tick(now sim.Cycle) {
	d.ticks = append(d.ticks, now)
	for f := d.Iface.Recv(); f != nil; f = d.Iface.Recv() {
		d.Net.ReleaseFlit(f)
	}
	if d.rest != nil {
		d.until = d.rest(now)
	}
}

func (d *napper) IdleUntil(now sim.Cycle) sim.Cycle {
	if d.Iface.EjectLen() > 0 || d.until <= now {
		return now
	}
	return d.until
}

// calendarEntries lists the calendar as "device@cycle", in heap order.
func calendarEntries(n *Network) (out []string) {
	for _, e := range n.cal.heap {
		out = append(out, fmt.Sprintf("%s@%d", n.devs[e.dev].dev.Name(), e.at))
	}
	return out
}

// TestTimedWakeCalendar pins the calendar's one-entry-per-device rule: a
// device woken before its cycle that sleeps again — to the same, an
// earlier or a later cycle — re-keys its entry instead of adding one, a
// device that sleeps with nothing to wait for takes its entry out, and
// wakeAll and a checkpoint restore leave the calendar empty.
func TestTimedWakeCalendar(t *testing.T) {
	t.Run("10000 rounds before a far deadline", calendarStaysBounded)
	build := func() (*Network, []*napper) {
		net := NewNetwork("cal")
		r := net.AddRing(16, true)
		var ds []*napper
		for i := 0; i < 5; i++ {
			ds = append(ds, newNapper(net, r.AddStation(3*i), fmt.Sprintf("nap%d", i)))
		}
		net.MustFinalize()
		return net, ds
	}
	net, ds := build()
	d := ds[0]
	for i, other := range ds[1:] {
		other.until = sim.Cycle(400 + 100*i) // bystanders: 400, 500, 600, 700
	}
	// Each step wakes d by hand at a cycle before the one it sleeps towards
	// and gives it the next one: the same, an earlier, a later, none, one
	// again.
	d.until = 100
	for _, step := range []struct{ wakeAt, until sim.Cycle }{
		{10, 100}, {20, 50}, {30, 200}, {40, Never}, {45, 300},
	} {
		runCycles(net, int(step.wakeAt)-int(net.ticks))
		d.until = step.until
		d.Iface.Wake()
		runCycles(net, 1)
		want := 5
		if step.until == Never {
			want = 4
		}
		if got := calendarEntries(net); len(got) != want {
			t.Fatalf("woken at %d to sleep until %d: calendar holds %v, want %d entries", step.wakeAt, step.until, got, want)
		}
		if s := net.cal.slot[0]; step.until != Never && net.cal.heap[s].at != step.until {
			t.Fatalf("woken at %d: nap0's entry is for cycle %d, want %d", step.wakeAt, net.cal.heap[s].at, step.until)
		}
		if err := net.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	runCycles(net, 350-int(net.ticks))
	if got, want := fmt.Sprint(d.ticks), "[0 10 20 30 40 45 300 301 302"; len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("nap0 ticked at %v, want %s ...: woken by hand five times, then by the calendar at 300 and awake from there", d.ticks, want)
	}
	if got := fmt.Sprint(ds[1].ticks); got != "[0]" {
		t.Fatalf("nap1 sleeps until 400 and ticked at %s", got)
	}

	// wakeAll: every bit set, nothing left in the calendar or its index.
	if len(net.cal.heap) == 0 {
		t.Fatal("the calendar is empty before wakeAll; the bystanders should be in it")
	}
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, net, nil); err != nil {
		t.Fatal(err)
	}
	emptied := func(n *Network, after string) {
		t.Helper()
		if len(n.cal.heap) != 0 {
			t.Fatalf("%s: calendar holds %v", after, calendarEntries(n))
		}
		for i := range n.devs {
			if n.cal.slot[i] != -1 || n.awake[i>>6]>>(uint(i)&63)&1 == 0 {
				t.Fatalf("%s: %s is indexed at %d, awake bits %b", after, n.devs[i].dev.Name(), n.cal.slot[i], n.awake)
			}
		}
	}
	net.wakeAll()
	emptied(net, "wakeAll")
	runCycles(net, 1)
	if got := calendarEntries(net); len(got) != 4 {
		t.Fatalf("one cycle after wakeAll the calendar holds %v, want the four bystanders back", got)
	}

	// Restore into a network that has been running, with sleepers in its
	// calendar: the loaded state decides, one tick later.
	twin, twins := build()
	for _, other := range twins {
		other.until = 9000
	}
	runCycles(twin, 5)
	if len(twin.cal.heap) != 5 {
		t.Fatalf("twin's calendar holds %v before the restore", calendarEntries(twin))
	}
	if _, err := ReadCheckpoint(&ckpt, twin); err != nil {
		t.Fatal(err)
	}
	emptied(twin, "restore")
	runCycles(twin, 1)
	if got := fmt.Sprint(calendarEntries(twin)); got != fmt.Sprint(calendarEntries(net)) {
		t.Fatalf("one cycle after the restore the calendar holds %s, the original's holds %v", got, calendarEntries(net))
	}
}

// calendarStaysBounded: many devices woken early over and over, long
// before the far deadline each sleeps towards (a requester's retry
// deadline under a stream of completions). The calendar never holds more
// than one entry per device and the device loop allocates nothing.
func calendarStaysBounded(t *testing.T) {
	net := NewNetwork("cal")
	r := net.AddRing(64, true)
	rng := sim.NewRNG(7)
	var ds []*napper
	for i := 0; i < 24; i++ {
		d := newNapper(net, r.AddStation(2*i), fmt.Sprintf("nap%d", i))
		// A far deadline that moves now and then, earlier or later.
		d.rest = func(now sim.Cycle) sim.Cycle { return now + 1_000_000 + sim.Cycle(rng.Intn(3)) }
		d.ticks = make([]sim.Cycle, 0, 1<<16)
		ds = append(ds, d)
	}
	net.MustFinalize()
	runCycles(net, 1)
	round := func() {
		for k := 0; k < 3; k++ {
			ds[rng.Intn(len(ds))].Iface.Wake()
		}
		runCycles(net, 1)
	}
	for i := 0; i < 10_000; i++ {
		round()
		if len(net.cal.heap) > len(ds) {
			t.Fatalf("round %d: %d calendar entries for %d devices", i, len(net.cal.heap), len(ds))
		}
		if i%500 == 0 {
			if err := net.CheckConservation(); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	if len(net.cal.heap) != len(ds) || cap(net.cal.heap) != len(ds) {
		t.Fatalf("after 10000 rounds: %d entries in a calendar of capacity %d, want %d and %d", len(net.cal.heap), cap(net.cal.heap), len(ds), len(ds))
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a gated cycle of a warm network allocates %v times, want 0", allocs)
	}
}

// plainOwner is a device anchored at a node that has no idle contract: it
// ticks every cycle and never reads a wake.
type plainOwner struct {
	node  NodeID
	ticks int
}

func (p *plainOwner) Name() string   { return "plain" }
func (p *plainOwner) Node() NodeID   { return p.node }
func (p *plainOwner) Tick(sim.Cycle) { p.ticks++ }

// TestSleeperSharesNodeWithPlainOwner: two devices on one node, the first
// registered with no idle contract. It must not claim the node's
// interfaces — it never sleeps, so it would only keep them from the
// sleeper registered after it, which would then be asked every cycle for
// ever. The sleeper owns the node: it is skipped, an ejection wakes it,
// and the calendar does.
func TestSleeperSharesNodeWithPlainOwner(t *testing.T) {
	net := NewNetwork("shared")
	r := net.AddRing(8, true)
	src := newSource(t, net, r.AddStation(0), "src")
	plain := &plainOwner{}
	net.AddDevice(plain)
	nap := newNapper(net, r.AddStation(4), "nap")
	plain.node = nap.Node()
	net.MustFinalize()
	nap.until = 60
	src.queueAt(net.NewFlit(src.Node(), nap.Node(), KindData, LineBytes), 20)
	runCycles(net, 100)
	if plain.ticks != 100 {
		t.Fatalf("the device with no idle contract ticked %d of 100 cycles", plain.ticks)
	}
	// Cycle 0, the ejection (sent at 20, four hops), the timed wake, then
	// awake: until has passed.
	if got, want := fmt.Sprint(nap.ticks[:4]), "[0 25 60 61]"; got != want {
		t.Fatalf("the sleeper ticked at %v..., want %s", got, want)
	}
	if nap.Iface.wake == nil || net.polled[0] != 1<<1 {
		t.Fatalf("polled mask %b: the sleeper (device 2) must own its node, the plain owner (device 1) be ticked every cycle", net.polled[0])
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
