package baseline

import (
	"fmt"

	"chipletnoc/internal/sim"
)

// HubConfig sizes the switched-hub chiplet fabric.
type HubConfig struct {
	// Dies and NodesPerDie define the package: node i lives on die
	// i / NodesPerDie.
	Dies, NodesPerDie int
	// IntraDelay is the fixed on-die latency to reach the die's edge.
	IntraDelay uint64
	// HubDelay is the switch traversal latency.
	HubDelay uint64
	// HubPorts is how many packets the central switch moves per cycle
	// (its crossbar bandwidth) — the contention point of the design.
	HubPorts int
	// QueueDepth bounds each die's egress/ingress queues.
	QueueDepth int
}

// DefaultHubConfig returns an AMD-Rome-class calibration: all inter-die
// traffic crosses one IO-die switch.
func DefaultHubConfig(dies, nodesPerDie int) HubConfig {
	return HubConfig{
		Dies: dies, NodesPerDie: nodesPerDie,
		IntraDelay: 8, HubDelay: 12, HubPorts: 4, QueueDepth: 16,
	}
}

// SwitchedHub models the IO-die-switch organisation: cheap on-die
// transport, with every inter-die packet funnelled through a central
// switch of limited bandwidth — scalable in dies, but the hub saturates.
type SwitchedHub struct {
	cfg HubConfig
	now uint64
	// egress[d] holds packets leaving die d for the hub; ingress[d]
	// holds packets the hub has routed towards die d.
	egress, ingress []sim.FIFO[*packet]
	// local carries intra-die packets as (readyAt, packet) pairs.
	local []*packet
	stats deliveryStats
	pool  packetPool

	// HubTraversals counts switch passages (energy/contention metric).
	HubTraversals uint64
}

// NewSwitchedHub builds the package.
func NewSwitchedHub(cfg HubConfig) *SwitchedHub {
	if cfg.Dies < 1 || cfg.NodesPerDie < 1 {
		panic("baseline: hub needs positive geometry")
	}
	return &SwitchedHub{
		cfg:     cfg,
		egress:  make([]sim.FIFO[*packet], cfg.Dies),
		ingress: make([]sim.FIFO[*packet], cfg.Dies),
	}
}

// Name implements Fabric.
func (h *SwitchedHub) Name() string {
	return fmt.Sprintf("switched-hub-%dx%d", h.cfg.Dies, h.cfg.NodesPerDie)
}

// Nodes implements Fabric.
func (h *SwitchedHub) Nodes() int { return h.cfg.Dies * h.cfg.NodesPerDie }

// Delivered implements Fabric.
func (h *SwitchedHub) Delivered() (uint64, uint64) { return h.stats.packets, h.stats.bytes }

// NocCounters returns (hops, router traversals, link transfers) for the
// energy model: hub passages are switch traversals and each crosses two
// die-to-die links.
func (h *SwitchedHub) NocCounters() (uint64, uint64, uint64) {
	p, _ := h.Delivered()
	return p * 4, h.HubTraversals, h.HubTraversals * 2
}

func (h *SwitchedHub) dieOf(node int) int { return node / h.cfg.NodesPerDie }

// TrySend implements Fabric.
func (h *SwitchedHub) TrySend(src, dst, payloadBytes int, done DeliverFunc) bool {
	if src == dst {
		panic("baseline: hub send to self")
	}
	if h.dieOf(src) == h.dieOf(dst) {
		// Intra-die: fixed-latency transport, no hub involvement.
		p := h.pool.get()
		*p = packet{dst: dst, payload: payloadBytes, done: done, injected: h.now}
		p.readyAt = h.now + h.cfg.IntraDelay
		h.local = append(h.local, p)
		return true
	}
	d := h.dieOf(src)
	if h.egress[d].Len() >= h.cfg.QueueDepth {
		return false
	}
	p := h.pool.get()
	*p = packet{dst: dst, payload: payloadBytes, done: done, injected: h.now}
	p.readyAt = h.now + h.cfg.IntraDelay // reach the die edge first
	h.egress[d].Push(p)
	return true
}

// Tick implements Fabric.
func (h *SwitchedHub) Tick() {
	// Deliver matured intra-die packets.
	keep := h.local[:0]
	for _, p := range h.local {
		if p.readyAt <= h.now {
			h.stats.deliver(p, h.now)
			h.pool.put(p)
		} else {
			keep = append(keep, p)
		}
	}
	for i := len(keep); i < len(h.local); i++ {
		h.local[i] = nil // drop stale tails so delivered packets can recycle
	}
	h.local = keep
	// Hub crossbar: up to HubPorts packets per cycle move from egress
	// queues (round-robin over dies) into the destination die's ingress.
	budget := h.cfg.HubPorts
	for scan := 0; scan < h.cfg.Dies && budget > 0; scan++ {
		d := (int(h.now) + scan) % h.cfg.Dies // rotate priority for fairness
		q := &h.egress[d]
		if q.Len() == 0 || q.Peek().readyAt > h.now {
			continue
		}
		dd := h.dieOf(q.Peek().dst)
		if h.ingress[dd].Len() >= h.cfg.QueueDepth {
			continue
		}
		p := q.Pop()
		p.readyAt = h.now + h.cfg.HubDelay
		h.ingress[dd].Push(p)
		h.HubTraversals++
		budget--
	}
	// Ingress queues drain onto their die and deliver after IntraDelay.
	for d := range h.ingress {
		q := &h.ingress[d]
		if q.Len() == 0 || q.Peek().readyAt > h.now {
			continue
		}
		p := q.Pop()
		p.readyAt = h.now + h.cfg.IntraDelay
		h.local = append(h.local, p)
	}
	h.now++
}
