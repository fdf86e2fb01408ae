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
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// msgCodecID is this package's stable wire tag in the NoC msg-codec
// registry.
const msgCodecID = 1

func init() {
	noc.RegisterMsgCodec(noc.MsgCodec{
		ID: msgCodecID,
		Ref: func(m interface{}) *uint32 {
			if msg, ok := m.(*Message); ok {
				return &msg.mark
			}
			return nil
		},
		New:  func() interface{} { return &Message{} },
		Walk: func(s *noc.Snap, m interface{}) { m.(*Message).snapState(s) },
		// A response or returned data travels to its requester; a
		// request, a snoop or write data away from it, and its receiver
		// answers the requester. Only a request is held in more than one
		// place (recycle.go).
		Carries: func(m interface{}, dst noc.NodeID) bool {
			msg := m.(*Message)
			ch := msg.Op.Channel()
			return (ch == RSP || ch == DAT && msg.Op != NonCopyBackWrData) == (dst == msg.Requester)
		},
		OneTrip: func(m interface{}) bool { return !m.(*Message).Op.IsRequest() },
	})
}

// snapState walks one message's contents. The completion goes to
// Requester, so it must be an endpoint; RetryDst is checked as one where
// a retry can use it (Retrier.SnapState).
func (m *Message) snapState(s *noc.Snap) {
	c := s.Codec
	c.U32(&m.TxnID)
	sim.Int(c, &m.Op)
	if m.Op < ReadNoSnp || m.Op > NonCopyBackWrData {
		c.Fail("message opcode %d undefined", m.Op)
	}
	c.U64(&m.Addr)
	s.Node(&m.Requester, noc.Endpoint, "message requester")
	sim.Int(c, &m.Size)
	c.U64(&m.IssuedAt)
	sim.Int(c, &m.BeatsLeft)
	s.Node(&m.RetryDst, noc.AnyNode, "message retry destination")
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
// capacity must match the build, and a loaded entry's message must carry
// the TxnID it is filed under.
func (t *Tracker) SnapState(s *noc.Snap) {
	c := s.Codec
	capacity := t.capacity
	sim.Int(c, &capacity)
	if capacity != t.capacity {
		c.Fail("tracker capacity %d does not match %d", capacity, t.capacity)
	}
	c.U32(&t.nextID)
	sim.WalkTable(c, &t.open, t.capacity, func(id *uint64, m **Message) {
		c.Key32(id)
		SnapMessage(s, m, "tracker entry")
		if c.Loading() && *m != nil && uint64((*m).TxnID) != *id {
			c.Fail("tracker entry %d holds transaction %d", *id, (*m).TxnID)
		}
	})
}

// snapState walks one armed transaction.
func (a *armedTxn) snapState(c *sim.Codec) {
	c.U32(&a.id)
	sim.Uint(c, &a.deadline)
	sim.Int(c, &a.attempts)
}

// SnapState walks the retry engine's live armed transactions in arm
// order (dead entries are compaction debris and do not travel; rebuilt
// state behaves identically because Expired ignores them anyway). A
// loaded armed transaction open in t is re-sent to its RetryDst, so that
// must be an endpoint other than its requester.
func (r *Retrier) SnapState(s *noc.Snap, t *Tracker) {
	c := s.Codec
	c.U64(&r.RetriedTxns)
	c.U64(&r.AbortedTxns)
	n := c.Len(r.watched.Len(), 1<<20)
	if !c.Loading() {
		for _, a := range r.order {
			if !a.dead {
				a.snapState(c)
			}
		}
		return
	}
	r.watched.Clear()
	clear(r.order)
	r.order = r.order[:0]
	for i := 0; i < n && c.Err() == nil; i++ {
		a := &armedTxn{}
		a.snapState(c)
		if _, dup := r.watched.Get(uint64(a.id)); dup {
			c.Fail("duplicate armed transaction %d", a.id)
		}
		if m := t.Lookup(a.id); m != nil && (m.RetryDst == m.Requester || !s.Plays(m.RetryDst, noc.Endpoint)) {
			c.Fail("armed transaction %d retries to node %d", a.id, m.RetryDst)
		}
		r.watched.Put(uint64(a.id), a)
		r.order = append(r.order, a)
	}
}
