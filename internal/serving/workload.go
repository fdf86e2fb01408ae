// Command-DAG expansion: turning the declarative layer list of a
// serving spec into the per-batch dependency graph the orchestrator
// drives. Each layer becomes one or more commands — attention and FFN a
// single weight read on the batch's home die; a MoE layer a dispatch /
// expert-compute / combine triple per activated expert, with the
// dispatch writing activations to the expert's die and the combine
// writing results back, so top-k routing over die-mapped experts turns
// into all-to-all traffic across the inter-die bridges.
package serving

import (
	"slices"

	"chipletnoc/internal/config"
	"chipletnoc/internal/sim"
)

// Command kinds, named after the DAG nodes of the uPimulator host
// orchestration model.
const (
	cmdAttention = "attention"
	cmdDispatch  = "moe-dispatch"
	cmdExpert    = "expert-compute"
	cmdCombine   = "moe-combine"
	cmdFFN       = "ffn"
)

// command is one node of a batch's DAG: a NoC transfer (a CHI read or
// write executed by the engine on die `die` against die `target`'s
// memory) followed by `compute` cycles of modelled arithmetic.
type command struct {
	kind    string
	die     int // executing engine
	target  int // die whose memory the transfer touches
	write   bool
	bytes   int
	compute int

	deps    int        // unmet dependency count
	outs    []*command // dependents to release on completion
	b       *batch
	readyAt sim.Cycle // compute completion, once transferred
}

// request is one open-loop arrival awaiting (or riding) a batch.
type request struct {
	arrival sim.Cycle
}

// batch groups requests into one DAG execution.
type batch struct {
	id        int
	home      int // die executing the non-expert layers
	reqs      []request
	cmds      []*command // the batch's whole DAG, recycled with it
	remaining int        // unfinished commands
}

// dependOn wires a dependency edge from each of froms to c.
func (c *command) dependOn(froms []*command) {
	for _, f := range froms {
		f.outs = append(f.outs, c)
		c.deps++
	}
}

// dag is the command and batch free-list of one orchestrator, with
// expandBatch's per-layer work lists and pickExperts' expert buffer: a
// completed batch gives its commands (keeping their outs capacity) and
// itself back, and the next batch's DAG is drawn from them. A plain LIFO,
// like the network's flit and message lists. minted and reused count the
// commands newCommand made and took back — host-side diagnostics.
type dag struct {
	cmds           []*command
	batches        []*batch
	entries, exits [][]*command
	perm           []int
	minted, reused uint64
}

// newCommand returns a command holding c, reusing a released one when
// there is one.
func (d *dag) newCommand(c command) *command {
	k := len(d.cmds)
	if k == 0 {
		d.minted++
		p := new(command)
		*p = c
		return p
	}
	p := d.cmds[k-1]
	d.cmds = d.cmds[:k-1]
	d.reused++
	c.outs = p.outs[:0]
	*p = c
	return p
}

// newBatch returns an empty batch, reusing a released one when there is
// one.
func (d *dag) newBatch() *batch {
	k := len(d.batches)
	if k == 0 {
		return new(batch)
	}
	b := d.batches[k-1]
	d.batches = d.batches[:k-1]
	return b
}

// release takes back a completed batch and every command of its DAG;
// nothing may reference them afterwards.
func (d *dag) release(b *batch) {
	d.cmds = append(d.cmds, b.cmds...)
	b.cmds, b.reqs = b.cmds[:0], b.reqs[:0]
	d.batches = append(d.batches, b)
}

// expandBatch builds the command DAG for one batch homed on die home into
// b.cmds. MoE expert selection draws from rng (top-FanOut distinct
// experts, fresh per batch and per layer), so consecutive batches spread
// across the expert population the way token-dependent routing would.
// Entry commands (no deps) are ready to issue.
func (d *dag) expandBatch(spec *config.ServingSpec, b *batch, rng *sim.RNG) {
	for len(d.entries) < len(spec.Layers) {
		d.entries, d.exits = append(d.entries, nil), append(d.exits, nil)
	}
	entries, exits := d.entries[:len(spec.Layers)], d.exits[:len(spec.Layers)]
	for i := range spec.Layers {
		l := &spec.Layers[i]
		entries[i], exits[i] = entries[i][:0], exits[i][:0]
		switch l.Kind {
		case config.LayerMoE:
			for _, e := range d.pickExperts(l, rng) {
				die := l.ExpertDies[e]
				dis := d.newCommand(command{kind: cmdDispatch, die: b.home, target: die, write: true, bytes: l.Bytes, b: b})
				x := d.newCommand(command{kind: cmdExpert, die: die, target: die, bytes: l.ExpertBytes, compute: l.ComputeCycles, b: b})
				c := d.newCommand(command{kind: cmdCombine, die: die, target: b.home, write: true, bytes: l.Bytes, b: b})
				x.dependOn([]*command{dis})
				c.dependOn([]*command{x})
				entries[i] = append(entries[i], dis)
				exits[i] = append(exits[i], c)
				b.cmds = append(b.cmds, dis, x, c)
			}
		default: // attention / ffn: one local weight read + compute
			kind := cmdAttention
			if l.Kind == config.LayerFFN {
				kind = cmdFFN
			}
			c := d.newCommand(command{kind: kind, die: b.home, target: b.home, bytes: l.Bytes, compute: l.ComputeCycles, b: b})
			entries[i], exits[i] = append(entries[i], c), append(exits[i], c)
			b.cmds = append(b.cmds, c)
		}
		for _, dep := range spec.LayerDeps(i) {
			for _, entry := range entries[i] {
				entry.dependOn(exits[dep])
			}
		}
	}
	b.remaining = len(b.cmds)
}

// pickExperts returns the FanOut activated expert indices, ascending,
// in d.perm (valid until the next call). Routing to every expert skips
// the RNG so a dense layer stays draw-free; sorting the partial
// permutation keeps command creation order a function of the selection
// set, not of Perm's internal order.
func (d *dag) pickExperts(l *config.ServingLayerSpec, rng *sim.RNG) []int {
	p := d.perm[:0]
	for i := 0; i < l.Experts; i++ {
		p = append(p, i)
	}
	d.perm = p
	if l.FanOut >= l.Experts {
		return p
	}
	rng.Perm(p)
	p = p[:l.FanOut]
	slices.Sort(p)
	return p
}
