package noc

import (
	"fmt"
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
