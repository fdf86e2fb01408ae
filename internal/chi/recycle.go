// Message recycling. CHI is packetized and stateless: a response or a
// write-data beat lives for exactly one flit trip, and a request for one
// transaction. Those messages come from, and go back to, a per-network
// free-list (noc.Network.TakeMsg/PutMsg) — a plain LIFO like the flits'
// own, never sync.Pool — so recycling order is reproducible and a
// message never crosses between the concurrently simulated networks of
// the experiment harness.
//
// The ownership rule — who releases what, and when:
//
//   - A one-trip message (DBIDResp, Comp, CompData, NonCopyBackWrData) is
//     released by the device that takes it off the fabric, after reading
//     it. A stale arrival, for a transaction no longer open, is released
//     too.
//   - A request is released by its issuer when the transaction retires,
//     and only if it was never re-sent: a retried request may still sit
//     in a memory controller as a duplicate, so it is left to the garbage
//     collector, as is an aborted one and anything the fabric drops.
//   - mem.Controller mints replies and releases the write beats it
//     consumes. It never releases a request.
//
// The issuer side of the rule lives in Tracker.Settle, the one completion
// loop every issuing device runs. Devices that build messages themselves
// (the coherence agents) release nothing; their messages are garbage
// collected as before.
package chi

import (
	"fmt"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// recycle switches the free-list on. Tests switch it off (NewMsg always
// allocates, Release does nothing) to show recycling changes no result.
var recycle = true

// NewMsg returns a message holding m, reusing one a Release gave n's
// free-list when there is one.
func NewMsg(n *noc.Network, m Message) *Message {
	if recycle {
		if p, _ := n.TakeMsg().(*Message); p != nil {
			*p = m
			return p
		}
	}
	p := new(Message)
	*p = m
	return p
}

// Release hands m back to n's free-list; nothing may reference it
// afterwards. Releasing a message twice panics: the second owner's reads
// would see an unrelated later message.
func Release(n *noc.Network, m *Message) {
	if !recycle {
		return
	}
	if m.freed {
		panic(fmt.Sprintf("chi: %v message of transaction %d released twice", m.Op, m.TxnID))
	}
	if poisonReleased {
		*m = poisoned
	}
	m.freed = true
	n.PutMsg(m)
}

// poisoned is what a released message reads as in a poisoned build: an
// opcode with no channel, and every identifying field all ones, so a read
// after release panics or diverges instead of passing unnoticed.
var poisoned = Message{
	TxnID: ^uint32(0), Op: Opcode(1 << 30), Addr: ^uint64(0), Requester: -1, Size: -1,
	IssuedAt: ^uint64(0), BeatsLeft: -1, RetryDst: -1,
}

// Settle is the completion loop of an issuing device: it takes every
// arrival off iface and matches it against the tracker. A CompData counts
// its read's beats down, a DBIDResp queues the write's data burst on sendq
// (to the grant's sender), and a Comp or a read's last beat retires the
// transaction — the retrier (nil without retry) disarms it, the tracker
// closes it and done sees the request. An arrival for a transaction no
// longer open (a late reply after a retry) is dropped. Settle releases
// every arrival and every retired request that was never re-sent.
func (t *Tracker) Settle(n *noc.Network, iface *noc.NodeInterface, r *Retrier, sendq *sim.FIFO[*noc.Flit], done func(req *Message)) {
	for {
		f := iface.Recv()
		if f == nil {
			return
		}
		m := MsgOf(f)
		if req := t.Lookup(m.TxnID); req != nil {
			switch m.Op {
			case CompData:
				if req.BeatsLeft--; req.BeatsLeft <= 0 {
					t.retire(n, r, req, done)
				}
			case DBIDResp:
				// Write-buffer grant: ship the data burst.
				src := iface.Node()
				for b := 0; b < req.Beats(); b++ {
					d := NewMsg(n, Message{TxnID: req.TxnID, Op: NonCopyBackWrData, Addr: req.Addr, Requester: src, Size: req.Size})
					sendq.Push(d.NewFlit(n, src, f.Src))
				}
			case Comp:
				t.retire(n, r, req, done)
			}
		}
		Release(n, m)
		n.ReleaseFlit(f)
	}
}

// retire closes req's transaction, hands it to done and then releases it
// unless it was re-sent.
func (t *Tracker) retire(n *noc.Network, r *Retrier, req *Message, done func(req *Message)) {
	resent := r.Disarm(req.TxnID)
	t.Complete(req.TxnID)
	done(req)
	if !resent {
		Release(n, req)
	}
}
