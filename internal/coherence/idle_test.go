package coherence

import (
	"testing"

	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// gated is what TestIdleUntilHonest needs of a coherence device.
type gated interface {
	noc.Device
	noc.IdleUntiler
	SnapState(*noc.Snap)
}

// deviceState renders everything a Tick of d can touch: its own snapshot
// codec plus what it can do to the fabric through its interface.
func deviceState(t *testing.T, d gated, ni *noc.NodeInterface) string {
	t.Helper()
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	d.SnapState(s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	e.PutU64(uint64(ni.InjectLen()))
	e.PutU64(uint64(ni.EjectLen()))
	e.PutU64(ni.Injected)
	e.PutU64(ni.EjectedFlits)
	return string(e.Data())
}

// TestIdleUntilHonest is the invariant the tick engine's device gate
// rests on (the internal/mem test of the same name is the template), for
// the directory, the data slice and the core agents on fuzzed coherent
// traffic: whenever IdleUntil(next) > next, an extra Tick(next) must leave
// the device's encoded state byte-identical and move no flit. Two-entry
// transaction tables keep the agents blocked with requests still queued;
// a few hot lines keep ownership moving so every device runs deferred
// jobs (tag lookups, array reads, snoop answers) to sleep towards.
func TestIdleUntilHonest(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		net := noc.NewNetwork("idle")
		ring := net.AddRing(20, true)
		dir := NewDirectory(net, "dir0", 4, ring.AddStation(0))
		data := NewDataSlice(net, "l3d0", 10, ring.AddStation(5))
		ddr := mem.New(net, "ddr0", mem.DDR4Channel(), ring.AddStation(10))
		homeOf := func(uint64) noc.NodeID { return dir.Node() }
		cores := []*CoreAgent{
			NewCoreAgent(net, "core0", 6, 2, homeOf, ring.AddStation(13)),
			NewCoreAgent(net, "core1", 6, 2, homeOf, ring.AddStation(17)),
		}
		dir.WireTo(data.Node(), ddr.Node())
		net.MustFinalize()

		type watched struct {
			dev               gated
			iface             *noc.NodeInterface
			idle, busy, slept int
		}
		devs := []*watched{
			{dev: dir, iface: dir.iface}, {dev: data, iface: data.iface},
			{dev: cores[0], iface: cores[0].iface}, {dev: cores[1], iface: cores[1].iface},
		}

		rng := sim.NewRNG(seed)
		at, issued, blocked := 0, 0, 0
		for c := 0; c < 8000; c++ {
			now := sim.Cycle(net.Ticks())
			if c == at && issued < 120 {
				// Bursts deeper than a transaction table, then a gap that
				// sometimes lets everything drain and sometimes does not.
				for n := 1 + rng.Intn(5); n > 0; n-- {
					core := cores[rng.Intn(len(cores))]
					addr := uint64(rng.Intn(6)) * 64
					switch rng.Intn(4) {
					case 0:
						core.Read(addr)
					case 1:
						core.ReadOwned(addr)
					case 2:
						core.Write(addr)
					default:
						core.WriteBack(addr)
					}
					issued++
				}
				at = c + 1 + rng.Intn(120)
			}
			net.Tick(now)
			next := now + 1
			for _, w := range devs {
				until := w.dev.IdleUntil(next)
				if until <= next {
					w.busy++
					continue
				}
				w.idle++
				if until != noc.Never {
					w.slept++
				}
				if a, ok := w.dev.(*CoreAgent); ok && a.queue.Len() > 0 {
					blocked++ // asleep on a full table with requests waiting
				}
				before := deviceState(t, w.dev, w.iface)
				w.dev.Tick(next)
				if after := deviceState(t, w.dev, w.iface); after != before {
					t.Fatalf("seed %d: %s said idle until %d at cycle %d but its Tick changed state", seed, w.dev.Name(), until, next)
				}
			}
		}
		if done := int(cores[0].Completed + cores[1].Completed); done != issued {
			t.Fatalf("seed %d: %d of %d transactions completed", seed, done, issued)
		}
		for _, w := range devs {
			if w.idle == 0 || w.busy == 0 || w.slept == 0 {
				t.Fatalf("seed %d: %s: property not exercised (%d idle, %d busy, %d timed sleeps)", seed, w.dev.Name(), w.idle, w.busy, w.slept)
			}
		}
		if blocked == 0 {
			t.Fatalf("seed %d: no core agent ever slept on a full transaction table", seed)
		}
		if net.DeviceTicksSkipped == 0 {
			t.Fatalf("seed %d: the engine never skipped a device", seed)
		}
	}
}
