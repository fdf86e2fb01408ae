package noc

import (
	"encoding/json"

	"chipletnoc/internal/sim"
)

// Topology is a network as its builders made it, in plain data that
// shares no memory with it: never a table Finalize derives. It is the one
// description of a topology: Describe renders it, TopoHash hashes that
// rendering and Inventory sums it.
type Topology struct {
	Name       string
	ITag, ETag bool
	Rings      []RingTopology
	Nodes      []string // node names, by NodeID
	Devices    []DeviceTopology
}

// RingTopology is one ring: positions per direction, both directions
// (Full) or one, and its stations in position order.
type RingTopology struct {
	Positions int
	Full      bool
	Stations  []StationTopology
}

// StationTopology is one cross station and its interface slots (nil: empty).
type StationTopology struct {
	Pos    int
	Ifaces [2]*InterfaceTopology
}

// InterfaceTopology is one node interface and its queue capacities.
type InterfaceTopology struct {
	Node                  NodeID
	Inject, Eject, Bypass int
}

// DeviceTopology is one device: its name, its Go type as DeviceTicksByKind
// names it and, for a bridge, a copy of its configuration.
type DeviceTopology struct {
	Name string
	Kind string
	L1   *RBRGL1Config `json:",omitempty"`
	L2   *RBRGL2Config `json:",omitempty"`
}

// Topology exports the network's structure.
func (n *Network) Topology() Topology {
	t := Topology{Name: n.name, ITag: n.ITagEnabled, ETag: n.ETagEnabled}
	for _, r := range n.rings {
		rt := RingTopology{Positions: r.positions, Full: r.full}
		for _, st := range r.stations {
			stt := StationTopology{Pos: st.pos}
			for i, ni := range st.ifaces {
				if ni != nil {
					stt.Ifaces[i] = &InterfaceTopology{Node: ni.node,
						Inject: ni.inject.Cap(), Eject: ni.eject.Cap(), Bypass: ni.bypass.Cap()}
				}
			}
			rt.Stations = append(rt.Stations, stt)
		}
		t.Rings = append(t.Rings, rt)
	}
	for _, info := range n.nodes {
		t.Nodes = append(t.Nodes, info.name)
	}
	for _, d := range n.devices {
		dt := DeviceTopology{Name: d.Name(), Kind: kindOf(d)}
		switch b := d.(type) {
		case *RBRGL1:
			cfg := b.cfg
			dt.L1 = &cfg
		case *RBRGL2:
			cfg := b.cfg
			dt.L2 = &cfg
		}
		t.Devices = append(t.Devices, dt)
	}
	return t
}

// Describe renders the topology as JSON. The bytes are canonical — struct
// fields marshal in declaration order — so they are also what TopoHash
// hashes; cmd/nocsim prints them, indented, under -describe.
func (n *Network) Describe() []byte {
	b, _ := json.Marshal(n.Topology()) // ints, bools and strings: no error
	return b
}

// TopoHash fingerprints the network's structure, its Describe bytes, so
// a checkpoint can only be restored into an identically built system.
// Mutable state (queues, counters, failures) does not contribute. A
// finalized network computes it once: after Finalize only AddDevice
// changes what it hashes, and AddDevice forgets it; the tag flags are set
// before the first Tick.
func (n *Network) TopoHash() uint64 {
	if n.topoHash != 0 {
		return n.topoHash
	}
	h := n.hashTopology()
	if n.finalized {
		n.topoHash = h // a hash of 0 is merely computed again
	}
	return h
}

// hashTopology computes TopoHash.
func (n *Network) hashTopology() uint64 { return sim.FNV1a(n.Describe()) }

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

// Inventory sums the topology.
func (n *Network) Inventory() Inventory {
	t := n.Topology()
	inv := Inventory{Rings: len(t.Rings)}
	for _, r := range t.Rings {
		inv.Positions += r.Positions
		if r.Full {
			inv.Positions += r.Positions
		}
		inv.Stations += len(r.Stations)
		for _, st := range r.Stations {
			for _, ni := range st.Ifaces {
				if ni != nil {
					inv.Interfaces++
					inv.QueueEntries += ni.Inject + ni.Eject
					inv.BypassEntries += ni.Bypass
				}
			}
		}
	}
	return inv
}
