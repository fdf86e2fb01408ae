package baseline

import (
	"reflect"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// everyCyclePort is the port as it was before it could sleep: the same
// Tick with IdleUntil and Node hidden, so bindGates puts it in the polled
// mask and it runs every cycle — the reference the gated port is held to.
type everyCyclePort struct{ p *mrPort }

func (e everyCyclePort) Name() string       { return e.p.name }
func (e everyCyclePort) Tick(now sim.Cycle) { e.p.Tick(now) }

// WithEveryCyclePorts returns what build builds with every port it
// registers wrapped in everyCyclePort.
func WithEveryCyclePorts(build func() *MultiRing) *MultiRing {
	gated := portDevice
	portDevice = func(p *mrPort) noc.Device { return everyCyclePort{p} }
	defer func() { portDevice = gated }()
	return build()
}

// PortTicks returns how many Tick calls the network's ports got, whichever
// of the two kinds they are, and how many ports there are.
func (m *MultiRing) PortTicks() (ticks uint64, ports int) {
	for _, k := range m.net.DeviceTicksByKind() {
		if k.Kind == "baseline.mrPort" || k.Kind == "baseline.everyCyclePort" {
			ticks += k.Ticks
		}
	}
	return ticks, len(m.ports)
}

// FreeListCallbacks returns the length of the wrapped network's flit
// free-list and how many of its flits still carry a Msg. The list is
// private to noc; reflection may look at it, not touch it.
func (m *MultiRing) FreeListCallbacks() (free, withMsg int) {
	list := reflect.ValueOf(m.net).Elem().FieldByName("freeFlits")
	for i := 0; i < list.Len(); i++ {
		if !list.Index(i).Elem().FieldByName("Msg").IsNil() {
			withMsg++
		}
	}
	return list.Len(), withMsg
}
