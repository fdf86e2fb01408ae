package noc

import (
	"reflect"
	"sort"
	"strings"
)

// InterfaceStats is one node interface's activity summary.
type InterfaceStats struct {
	Node     NodeID
	Name     string
	Ring     RingID
	Position int

	Injected       uint64
	EjectedFlits   uint64
	EjectedPayload uint64
	Deflected      uint64
	Starved        uint64
}

// InterfaceReport collects per-interface counters, sorted by ejected
// flits descending — the hotspot view of the network.
func (n *Network) InterfaceReport() []InterfaceStats {
	n.settleStations()
	var out []InterfaceStats
	for _, r := range n.rings {
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				out = append(out, InterfaceStats{
					Node:           ni.node,
					Name:           n.nodes[ni.node].name,
					Ring:           r.id,
					Position:       st.pos,
					Injected:       ni.Injected,
					EjectedFlits:   ni.EjectedFlits,
					EjectedPayload: ni.EjectedPayload,
					Deflected:      ni.Deflected,
					Starved:        ni.starved,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EjectedFlits != out[j].EjectedFlits {
			return out[i].EjectedFlits > out[j].EjectedFlits
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// KindTicks is the device loop's account of the devices of one Go type:
// of the Ticks + Skipped device-cycles they went through, Ticks ran.
type KindTicks struct {
	Kind           string // "traffic.Requester"
	Devices        int
	Ticks, Skipped uint64
}

// DeviceTicksByKind says which of this network's devices the gate ticked
// and which it skipped, by Go type in name order — the table a change to
// an idle predicate is sized from.
func (n *Network) DeviceTicksByKind() []KindTicks {
	out := make([]KindTicks, len(n.kinds))
	for i, k := range n.kinds {
		out[i] = KindTicks{Kind: k.total.Kind, Devices: int(k.devices), Ticks: k.ticks, Skipped: n.ticks*k.devices - k.ticks}
	}
	return out
}

// DeviceTickTotals returns the process-wide DeviceTicksByKind: every
// device gated so far, and the device-cycles the networks have published
// (PublishEngineStats).
func DeviceTickTotals() []KindTicks {
	engineTotals.Lock()
	defer engineTotals.Unlock()
	out := make([]KindTicks, 0, len(engineTotals.byKind))
	for _, k := range engineTotals.byKind {
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// kindOf names a device's Go type: "traffic.Requester".
func kindOf(d Device) string { return strings.TrimPrefix(reflect.TypeOf(d).String(), "*") }

// tallyKinds gives every device of the current list the tally of its Go
// type, entered in the process-wide table, and returns the tallies in name
// order.
func (n *Network) tallyKinds() []*kindTally {
	engineTotals.Lock()
	defer engineTotals.Unlock()
	byKind := map[string]*kindTally{}
	var kinds []*kindTally
	for i, d := range n.devices {
		name := kindOf(d)
		k := byKind[name]
		if k == nil {
			if engineTotals.byKind[name] == nil {
				engineTotals.byKind[name] = &KindTicks{Kind: name}
			}
			k = &kindTally{total: engineTotals.byKind[name]}
			byKind[name] = k
			kinds = append(kinds, k)
		}
		k.devices++
		k.total.Devices++
		n.devs[i].kind = k
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].total.Kind < kinds[j].total.Kind })
	return kinds
}

// StatsSnapshot is a point-in-time view of the network's aggregate
// counters, convenient for differential measurement windows.
type StatsSnapshot struct {
	Cycles         uint64
	InjectedFlits  uint64
	DeliveredFlits uint64
	DeliveredBytes uint64
	Deflections    uint64
	TotalHops      uint64
}

// Snapshot captures the current counters.
func (n *Network) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Cycles:         n.ticks,
		InjectedFlits:  n.InjectedFlits,
		DeliveredFlits: n.DeliveredFlits,
		DeliveredBytes: n.DeliveredBytes,
		Deflections:    n.Deflections,
		TotalHops:      n.TotalHops,
	}
}

// Since returns the counter deltas from an earlier snapshot.
func (s StatsSnapshot) Since(earlier StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Cycles:         s.Cycles - earlier.Cycles,
		InjectedFlits:  s.InjectedFlits - earlier.InjectedFlits,
		DeliveredFlits: s.DeliveredFlits - earlier.DeliveredFlits,
		DeliveredBytes: s.DeliveredBytes - earlier.DeliveredBytes,
		Deflections:    s.Deflections - earlier.Deflections,
		TotalHops:      s.TotalHops - earlier.TotalHops,
	}
}
