package noc

import "chipletnoc/internal/sim"

// ForceAwake switches n to the reference engine — every ring, station and
// device ticked every cycle, the clock never jumped — for the catalogue
// harness in catalogue_test.go and TestIdleUntilHonest, which call it on
// a freshly built network. It exists only in test builds: production code
// has no way to turn the activity gate off.
func (n *Network) ForceAwake() { n.forceAwake = true }

// TickProbed is Tick on the forced-awake engine with probe wrapped around
// each device's tick: probe(d, tick) stands in for d.Tick(now) and must
// call tick exactly once. The idle-honesty probes of the catalogue
// harness and TestIdleUntilHonest look at the network on either side of
// it.
func (n *Network) TickProbed(probe func(d Device, now sim.Cycle, tick func())) {
	if !n.forceAwake {
		panic("noc: TickProbed on a gated network")
	}
	now := sim.Cycle(n.ticks)
	n.now = now
	n.ticks++
	n.throttleTick()
	if n.awake == nil {
		n.bindGates()
	}
	n.tickRings(now)
	for i := range n.devs {
		g := &n.devs[i]
		probe(g.dev, now, func() { g.dev.Tick(now) })
		g.kind.ticks++
	}
	n.cycleTail(now)
}

// FreeFlits is the length of n's flit free-list: a device that released
// a flit moved it.
func (n *Network) FreeFlits() int { return len(n.freeFlits) }
