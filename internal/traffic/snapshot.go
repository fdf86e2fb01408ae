// Checkpoint support for traffic generators: the requester walks its CHI
// tracker, in-flight accounting, pending beat flits, retry state,
// latency histogram and — critically for determinism — its RNG and
// address-stream positions, so a resumed generator issues the exact
// request sequence the uninterrupted run would have.
package traffic

import (
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// streamSeq is the wire tag of a sequential address stream, the one kind
// there is (2 and 3 were a uniform and a Zipfian stream). Its parameters
// (base, stride, footprint) are configuration rebuilt at construction;
// only the cursor is serialized.
const streamSeq = 1

// SnapState implements noc.StateSnapshotter.
func (r *Requester) SnapState(s *noc.Snap) {
	c := s.Codec
	r.tracker.SnapState(s)
	sim.Int(c, &r.readsInFlight)
	sim.Int(c, &r.writesInFlight)
	s.Flits(&r.sendq, 1<<20)
	c.MatchBool(r.retrier != nil, "retrier presence")
	if r.retrier != nil && c.Err() == nil {
		r.retrier.SnapState(c)
	}
	r.Latency.SnapState(c)
	c.U64(&r.Issued)
	c.U64(&r.Completed)
	c.U64(&r.ReadsDone)
	c.U64(&r.WritesDone)
	c.U64(&r.BytesMoved)
	c.U64(&r.Aborted)
	r.rng.SnapState(c)
	st, ok := r.cfg.Stream.(*SeqStream)
	if !ok {
		c.Fail("traffic: address stream %T is not checkpointable", r.cfg.Stream)
		return
	}
	tag := uint8(streamSeq)
	c.U8(&tag)
	if tag != streamSeq {
		c.Fail("stream tag %d does not match sequential stream", tag)
	}
	c.U64(&st.next)
}
