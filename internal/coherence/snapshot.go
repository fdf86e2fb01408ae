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

// snapJobs walks a deferred-work queue in order.
func snapJobs(s *noc.Snap, jobs *[]job) {
	sim.Slice(s.Codec, jobs, 1<<20)
	for i := range *jobs {
		j := &(*jobs)[i]
		sim.Uint(s.Codec, &j.ready)
		s.Flits(&j.send, 1<<16)
	}
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
		sim.Int(c, &l.owner)
		if l.state < Invalid || l.state > Modified {
			c.Fail("directory line state %d out of range", l.state)
		}
	})
	snapJobs(s, &dir.jobs)
	s.Flits(&dir.outbx, 1<<20)
	c.U64(&dir.Hits)
	c.U64(&dir.Misses)
	c.U64(&dir.Snoops)
}

// SnapState implements noc.StateSnapshotter.
func (ds *DataSlice) SnapState(s *noc.Snap) {
	snapJobs(s, &ds.jobs)
	s.Flits(&ds.outbx, 1<<20)
	s.U64(&ds.Reads)
	s.U64(&ds.Fills)
}

// SnapState implements noc.StateSnapshotter.
func (a *CoreAgent) SnapState(s *noc.Snap) {
	c := s.Codec
	a.tracker.SnapState(s)
	sim.Slice(c, &a.queue, 1<<20)
	for i := range a.queue {
		chi.SnapMessage(s, &a.queue[i], "queued request")
	}
	sim.Map(c, &a.issued, 1<<20, cmp.Less[uint32], func(id *uint32, at *sim.Cycle) {
		c.U32(id)
		sim.Uint(c, at)
	})
	snapJobs(s, &a.jobs)
	s.Flits(&a.outbx, 1<<20)
	c.U64(&a.Completed)
	c.U64(&a.SnoopsServed)
}
