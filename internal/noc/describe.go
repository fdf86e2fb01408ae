package noc

import (
	"fmt"
	"sort"
	"strings"
)

// Describe renders the network topology as text: each ring with its
// stations and attached nodes, then the inter-ring bridge graph. It is a
// debugging and documentation aid; cmd/nocsim prints it under -describe.
func (n *Network) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %q: %d rings, %d nodes\n", n.name, len(n.rings), len(n.nodes))
	for _, r := range n.rings {
		kind := "half"
		if r.full {
			kind = "full"
		}
		fmt.Fprintf(&b, "  ring %d (%s, %d positions):\n", r.id, kind, r.positions)
		for _, st := range r.stations {
			var names []string
			for _, ni := range st.ifaces {
				if ni != nil {
					names = append(names, n.nodes[ni.node].name)
				}
			}
			fmt.Fprintf(&b, "    pos %3d: %s\n", st.pos, strings.Join(names, ", "))
		}
	}
	if len(n.bridges) > 0 {
		b.WriteString("  bridges:\n")
		type edge struct {
			a, b  RingID
			names []string
		}
		var edges []edge
		for key, nodes := range n.bridges {
			if key[0] > key[1] {
				continue // each pair appears twice; keep one direction
			}
			var names []string
			for _, id := range nodes {
				names = append(names, n.nodes[id].name)
			}
			sort.Strings(names)
			edges = append(edges, edge{a: key[0], b: key[1], names: names})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].a != edges[j].a {
				return edges[i].a < edges[j].a
			}
			return edges[i].b < edges[j].b
		})
		for _, e := range edges {
			fmt.Fprintf(&b, "    ring %d <-> ring %d via %s\n", e.a, e.b, strings.Join(e.names, ", "))
		}
	}
	return b.String()
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

// BytesPerCycle returns the snapshot's delivered payload rate.
func (s StatsSnapshot) BytesPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DeliveredBytes) / float64(s.Cycles)
}

// Inventory counts the network's hardware resources for the area model:
// stations, node interfaces and their queue entries, and slot registers.
type Inventory struct {
	Rings         int
	Positions     int // total slot registers (both directions)
	Stations      int
	Interfaces    int
	QueueEntries  int // inject + eject capacity across interfaces
	BypassEntries int
}

// Inventory tallies the built topology.
func (n *Network) Inventory() Inventory {
	var inv Inventory
	inv.Rings = len(n.rings)
	for _, r := range n.rings {
		inv.Positions += r.positions
		if r.full {
			inv.Positions += r.positions
		}
		inv.Stations += len(r.stations)
		for _, st := range r.stations {
			for _, ni := range st.ifaces {
				if ni == nil {
					continue
				}
				inv.Interfaces++
				inv.QueueEntries += ni.inject.Cap() + ni.eject.Cap()
				inv.BypassEntries += ni.bypass.Cap()
			}
		}
	}
	return inv
}
