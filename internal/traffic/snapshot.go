// Checkpoint support for traffic generators: the requester walks its CHI
// tracker, in-flight accounting, pending beat flits, retry state,
// latency histograms and — critically for determinism — its RNG and
// address-stream positions, so a resumed generator issues the exact
// request sequence the uninterrupted run would have.
package traffic

import (
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// Address-stream wire tags. Stream parameters (base, stride, footprint,
// skew) are configuration rebuilt at construction; only the mutable
// cursor/RNG state is serialized.
const (
	streamSeq  = 1
	streamRand = 2
	streamZipf = 3
)

// matchStream walks the wire tag of the built stream's kind.
func matchStream(c *sim.Codec, want uint8, kind string) {
	tag := want
	c.U8(&tag)
	if tag != want {
		c.Fail("stream tag %d does not match %s stream", tag, kind)
	}
}

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
	r.ReadLatency.SnapState(c)
	r.WriteLatency.SnapState(c)
	c.U64(&r.Issued)
	c.U64(&r.Completed)
	c.U64(&r.ReadsDone)
	c.U64(&r.WritesDone)
	c.U64(&r.BytesMoved)
	c.U64(&r.Aborted)
	r.rng.SnapState(c)
	switch st := r.cfg.Stream.(type) {
	case *SeqStream:
		matchStream(c, streamSeq, "sequential")
		c.U64(&st.next)
	case *RandStream:
		matchStream(c, streamRand, "random")
		st.rng.SnapState(c)
	case *ZipfStream:
		matchStream(c, streamZipf, "Zipf")
		st.z.SnapState(c)
	default:
		c.Fail("traffic: address stream %T is not checkpointable", r.cfg.Stream)
	}
}
