// Checkpoint support for the coherence layer: directory line states,
// deferred lookup jobs, outboxes, and the core agent's transaction
// machinery. Wiring (home maps, data-slice/memory node IDs) and hooks
// (OnComplete) are construction-time state and are not serialized.
package coherence

import (
	"cmp"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// snapState walks the deferred jobs in order, then the outbox. A job
// travels as its ready cycle and a flit list whose length is always 1:
// the checkpoint format has room for several, no device defers more.
func (p *pump) snapState(s *noc.Snap) {
	sim.WalkFIFO(s.Codec, &p.jobs, 1<<20, func(j *job) {
		sim.Uint(s.Codec, &j.ready)
		s.Match(1, "flits in a deferred job")
		s.Flit(&j.f)
		if j.f == nil {
			s.Fail("nil flit in a deferred job")
		}
	})
	s.Flits(&p.outbx, 1<<20)
}

// SnapState implements noc.StateSnapshotter.
func (dir *Directory) SnapState(s *noc.Snap) {
	c := s.Codec
	sim.Map(c, &dir.lines, 1<<24, cmp.Less[uint64], func(addr *uint64, lp **line) {
		if *lp == nil {
			*lp = &line{}
		}
		l := *lp
		c.U64(addr)
		sim.Int(c, &l.state)
		s.Node(&l.owner, noc.AnyNode, "directory line owner")
		if l.state < Invalid || l.state > Modified {
			c.Fail("directory line state %d out of range", l.state)
		}
		// An owned line's owner is snooped.
		if owned := l.state == Exclusive || l.state == Modified; c.Loading() && owned && (l.owner == dir.Node() || !s.Plays(l.owner, noc.Endpoint)) {
			c.Fail("directory line owned by node %d", l.owner)
		}
	})
	dir.out.snapState(s)
	c.U64(&dir.Hits)
	c.U64(&dir.Misses)
	c.U64(&dir.Snoops)
}

// SnapState implements noc.StateSnapshotter.
func (ds *DataSlice) SnapState(s *noc.Snap) {
	ds.out.snapState(s)
	s.U64(&ds.Reads)
	s.U64(&ds.Fills)
}

// SnapState implements noc.StateSnapshotter.
func (a *CoreAgent) SnapState(s *noc.Snap) {
	c := s.Codec
	a.tracker.SnapState(s)
	sim.WalkFIFO(c, &a.queue, 1<<20, func(m **chi.Message) {
		chi.SnapMessage(s, m, "queued request")
		if c.Loading() && c.Err() == nil && !(*m).Op.IsRequest() {
			c.Fail("queued %v is no request", (*m).Op)
		}
	})
	sim.WalkTable(c, &a.issued, 1<<20, func(id *uint64, at *sim.Cycle) {
		c.Key32(id)
		sim.Uint(c, at)
	})
	a.out.snapState(s)
	c.U64(&a.Completed)
	c.U64(&a.SnoopsServed)
}
