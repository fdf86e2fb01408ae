// Checkpoint support for the CHI layer: the *Message walk the NoC
// snapshot machinery uses for flit payloads, plus the state walks of the
// transaction tracker and retry engine.
//
// The same *Message is typically referenced from the tracker's open
// table, a flit in flight, and a memory controller's queue. All three
// walk it through the shared identity pool (noc.Snap), so the sharing
// graph survives checkpoint/resume exactly.
package chi

import (
	"cmp"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// msgCodecID is this package's stable wire tag in the NoC msg-codec
// registry.
const msgCodecID = 1

func init() {
	noc.RegisterMsgCodec(noc.MsgCodec{
		ID:      msgCodecID,
		Matches: func(m interface{}) bool { _, ok := m.(*Message); return ok },
		New:     func() interface{} { return &Message{} },
		Walk:    func(s *noc.Snap, m interface{}) { m.(*Message).snapState(s.Codec) },
	})
}

// snapState walks one message's contents.
func (m *Message) snapState(c *sim.Codec) {
	c.U32(&m.TxnID)
	sim.Int(c, &m.Op)
	c.U64(&m.Addr)
	sim.Int(c, &m.Requester)
	sim.Int(c, &m.Size)
	c.U64(&m.IssuedAt)
	sim.Int(c, &m.BeatsLeft)
	sim.Int(c, &m.RetryDst)
}

// SnapMessage walks a pooled reference that must be a live CHI message;
// what names the holder in the failure.
func SnapMessage(s *noc.Snap, mp **Message, what string) {
	var m interface{}
	if *mp != nil {
		m = *mp
	}
	s.Msg(&m)
	if *mp, _ = m.(*Message); *mp == nil {
		s.Fail("%s is not a CHI message", what)
	}
}

// SnapState walks the tracker's open-transaction table through the
// shared message pool (TxnID order keeps the bytes deterministic); the
// capacity must match the build.
func (t *Tracker) SnapState(s *noc.Snap) {
	c := s.Codec
	capacity := t.capacity
	sim.Int(c, &capacity)
	if capacity != t.capacity {
		c.Fail("tracker capacity %d does not match %d", capacity, t.capacity)
	}
	c.U32(&t.nextID)
	sim.Map(c, &t.open, t.capacity, cmp.Less[uint32], func(id *uint32, m **Message) {
		c.U32(id)
		SnapMessage(s, m, "tracker entry")
	})
}

// SnapState walks the retry engine's live armed transactions in arm
// order (dead entries are compaction debris and do not travel; rebuilt
// state behaves identically because Expired ignores them anyway).
func (r *Retrier) SnapState(c *sim.Codec) {
	c.U64(&r.RetriedTxns)
	c.U64(&r.AbortedTxns)
	var live []*armedTxn
	for _, a := range r.order {
		if !a.dead {
			live = append(live, a)
		}
	}
	sim.Slice(c, &live, 1<<20)
	if c.Loading() {
		r.byID = make(map[uint32]*armedTxn, len(live))
		r.order = live
	}
	for i := range live {
		if live[i] == nil {
			live[i] = &armedTxn{}
		}
		a := live[i]
		c.U32(&a.id)
		sim.Uint(c, &a.deadline)
		sim.Int(c, &a.attempts)
		if c.Loading() {
			if _, dup := r.byID[a.id]; dup {
				c.Fail("duplicate armed transaction %d", a.id)
			}
			r.byID[a.id] = a
		}
	}
}
