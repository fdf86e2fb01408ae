package noc

// Port is a device's one place on the network: a node of the device's
// name, attached to one station. A device that owns exactly one node
// embeds it and gets Name and Node from it, so its name is its node's
// name and Node is the node whose interface wakes it (NodeOwner).
// Bridges (one node, several interfaces) and devices spanning several
// nodes keep their own wiring.
type Port struct {
	Net   *Network
	Iface *NodeInterface
	name  string
}

// Name implements Device.
func (p Port) Name() string { return p.name }

// Node returns the port's network address.
func (p Port) Node() NodeID { return p.Iface.Node() }

// Plug gives d a node named name on station st, with the default queue
// depths, and registers d — the whole join of a single-node device.
func (n *Network) Plug(d Device, name string, st *CrossStation) Port {
	return n.PlugQueued(d, name, st, DefaultInjectDepth, DefaultEjectDepth)
}

// PlugQueued is Plug with explicit queue depths.
func (n *Network) PlugQueued(d Device, name string, st *CrossStation, injectDepth, ejectDepth int) Port {
	p := Port{Net: n, Iface: n.AttachQueued(n.NewNode(name), st, injectDepth, ejectDepth), name: name}
	n.AddDevice(d)
	return p
}
