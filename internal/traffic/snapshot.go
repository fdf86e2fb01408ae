// Checkpoint support for traffic generators: the requester walks its CHI
// tracker, in-flight accounting, pending beat flits, retry state,
// latency histogram and — critically for determinism — its RNG and
// address-stream positions, so a resumed generator issues the exact
// request sequence the uninterrupted run would have. The replayer walks
// its trace cursor, tracker, pending beats and counters.
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
		r.retrier.SnapState(s, r.tracker)
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

// SnapState implements noc.StateSnapshotter. The trace is build shape:
// a load matches its length and refuses a cursor past its end.
func (r *Replayer) SnapState(s *noc.Snap) {
	c := s.Codec
	c.Match(len(r.ops), "trace ops")
	sim.Int(c, &r.next)
	if r.next < 0 || r.next > len(r.ops) {
		c.Fail("replay cursor %d outside a trace of %d ops", r.next, len(r.ops))
	}
	r.tracker.SnapState(s)
	s.Flits(&r.sendq, 1<<20)
	c.U64(&r.Issued)
	c.U64(&r.Completed)
	c.U64(&r.BytesMoved)
	c.U64(&r.SlipCycles)
}
