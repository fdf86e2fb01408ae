// Checkpoint support for memory controllers: request queue, in-service
// pipeline, pending reply flits, the fractional bandwidth-token bucket
// and the open write-burst tables — all through the shared identity
// pool, so a request referenced by both the controller queue and the
// requester's tracker stays one object after resume.
package mem

import (
	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// lessWrKey orders write-burst keys so the tables travel in
// deterministic order.
func lessWrKey(a, b wrKey) bool {
	if a.requester != b.requester {
		return a.requester < b.requester
	}
	return a.txn < b.txn
}

func (k *wrKey) snapState(c *sim.Codec) {
	sim.Int(c, &k.requester)
	c.U32(&k.txn)
}

// SnapState implements noc.StateSnapshotter.
func (c *Controller) SnapState(s *noc.Snap) {
	k := s.Codec
	sim.WalkFIFO(k, &c.queue, c.cfg.QueueDepth, func(m **chi.Message) {
		chi.SnapMessage(s, m, "queued request")
	})
	sim.WalkFIFO(k, &c.inSvc, 1<<16, func(p *pendingReq) {
		chi.SnapMessage(s, &p.m, "in-service request")
		sim.Uint(k, &p.ready)
	})
	s.Flits(&c.replies, 1<<20)
	k.F64(&c.tokens)
	sim.Map(k, &c.wrOpen, 1<<16, lessWrKey, func(key *wrKey, m **chi.Message) {
		key.snapState(k)
		chi.SnapMessage(s, m, "open write")
	})
	sim.Map(k, &c.wrBeats, 1<<16, lessWrKey, func(key *wrKey, beats *int) {
		key.snapState(k)
		sim.Int(k, beats)
	})
	k.U64(&c.Reads)
	k.U64(&c.Writes)
	k.U64(&c.BytesServed)
	k.U64(&c.QueueFullDrops)
	k.U64(&c.StrayWrData)
}
