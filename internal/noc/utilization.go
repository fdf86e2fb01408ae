package noc

import (
	"fmt"
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

// Hotspots returns the interfaces responsible for at least frac of all
// deflections (frac in (0,1]) — where eject bandwidth is short.
func (n *Network) Hotspots(frac float64) []InterfaceStats {
	report := n.InterfaceReport()
	var total uint64
	for _, s := range report {
		total += s.Deflected
	}
	if total == 0 {
		return nil
	}
	sort.Slice(report, func(i, j int) bool { return report[i].Deflected > report[j].Deflected })
	var out []InterfaceStats
	var acc uint64
	for _, s := range report {
		if s.Deflected == 0 || float64(acc) >= frac*float64(total) {
			break
		}
		out = append(out, s)
		acc += s.Deflected
	}
	return out
}

// UtilizationString renders the top-k interfaces by traffic.
func (n *Network) UtilizationString(k int) string {
	report := n.InterfaceReport()
	if k > 0 && len(report) > k {
		report = report[:k]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %8s %8s %9s %8s\n", "interface", "ring", "injected", "ejected", "deflected", "starved")
	for _, s := range report {
		fmt.Fprintf(&b, "%-24s %6d %8d %8d %9d %8d\n",
			fmt.Sprintf("%s@%d", s.Name, s.Position), s.Ring, s.Injected, s.EjectedFlits, s.Deflected, s.Starved)
	}
	return b.String()
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

// tallyKinds gives every device of the current list the tally of its Go
// type, entered in the process-wide table, and returns the tallies in name
// order.
func (n *Network) tallyKinds() []*kindTally {
	engineTotals.Lock()
	defer engineTotals.Unlock()
	byKind := map[reflect.Type]*kindTally{}
	var kinds []*kindTally
	for i, d := range n.devices {
		k := byKind[reflect.TypeOf(d)]
		if k == nil {
			name := strings.TrimPrefix(reflect.TypeOf(d).String(), "*")
			if engineTotals.byKind[name] == nil {
				engineTotals.byKind[name] = &KindTicks{Kind: name}
			}
			k = &kindTally{total: engineTotals.byKind[name]}
			byKind[reflect.TypeOf(d)] = k
			kinds = append(kinds, k)
		}
		k.devices++
		k.total.Devices++
		n.devs[i].kind = k
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].total.Kind < kinds[j].total.Kind })
	return kinds
}
