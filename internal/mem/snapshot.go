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

// walkBurstKey walks a burst key as its requester and TxnID.
func walkBurstKey(s *noc.Snap, k *uint64) {
	requester, txn := noc.NodeID(uint32(*k>>32)), uint32(*k)
	s.Node(&requester, noc.Endpoint, "write burst requester")
	s.U32(&txn)
	*k = burstKey(requester, txn)
}

// SnapState implements noc.StateSnapshotter.
func (c *Controller) SnapState(s *noc.Snap) {
	k := s.Codec
	sim.WalkFIFO(k, &c.ch.queue, c.cfg.QueueDepth, func(m **chi.Message) {
		chi.SnapMessage(s, m, "queued request")
	})
	sim.WalkFIFO(k, &c.ch.inSvc, 1<<16, func(p *timed[*chi.Message]) {
		chi.SnapMessage(s, &p.v, "in-service request")
		sim.Uint(k, &p.ready)
	})
	s.Flits(&c.replies, 1<<20)
	c.ch.walkBucket(k, sim.Cycle(c.net.Ticks()))
	// Every open write, then the beats landed of each burst that has
	// begun to arrive, both in key order. A count for a write that is not
	// open, or one outside [1, Beats()) — the last beat queues the write —
	// fails the load.
	sim.WalkTable(k, &c.bursts, 1<<16, func(key *uint64, m **chi.Message) {
		walkBurstKey(s, key)
		chi.SnapMessage(s, m, "open write")
	})
	sim.WalkTable(k, &c.landed, 1<<16, func(key *uint64, n *int32) {
		walkBurstKey(s, key)
		sim.Int(k, n)
		if !k.Loading() {
			return
		}
		if req, open := c.bursts.Get(*key); !open {
			k.Fail("write beats for %#x, which is not open", *key)
		} else if *n < 1 || int(*n) >= req.Beats() {
			k.Fail("%d write beats for %#x, a burst of %d", *n, *key, req.Beats())
		}
	})
	k.U64(&c.Reads)
	k.U64(&c.Writes)
	k.U64(&c.BytesServed)
	k.U64(&c.QueueFullDrops)
	k.U64(&c.StrayWrData)
}
