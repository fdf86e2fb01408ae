package chi

import (
	"testing"

	"chipletnoc/internal/noc"
)

func TestReleaseTwicePanics(t *testing.T) {
	n := noc.NewNetwork("t")
	m := NewMsg(n, Message{TxnID: 7, Op: CompData})
	Release(n, m)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of the same message did not panic")
		}
	}()
	Release(n, m)
}

// TestNewMsgReusesReleased: the free-list is a LIFO, a reused message
// holds exactly what NewMsg was given, and it may be released again.
func TestNewMsgReusesReleased(t *testing.T) {
	n := noc.NewNetwork("t")
	a := NewMsg(n, Message{TxnID: 1, Op: ReadNoSnp, BeatsLeft: 3})
	b := NewMsg(n, Message{TxnID: 2, Op: WriteNoSnp, IssuedAt: 9})
	Release(n, a)
	Release(n, b)
	want := Message{TxnID: 3, Op: Comp, Addr: 0x40}
	if got := NewMsg(n, want); got != b || *got != want {
		t.Fatalf("NewMsg gave %p %+v, want the last released message %p holding %+v", got, *got, b, want)
	}
	if got := NewMsg(n, want); got != a || *got != want {
		t.Fatalf("NewMsg gave %p %+v, want %p holding %+v", got, *got, a, want)
	}
	if got := NewMsg(n, want); got == a || got == b {
		t.Fatal("an empty free-list handed out a live message")
	}
	Release(n, b)
}

// TestReleasePoisons runs in builds with -tags chipoison: a released
// message reads as an opcode with no channel and an all-ones TxnID.
func TestReleasePoisons(t *testing.T) {
	if !poisonReleased {
		t.Skip("poisoning is compiled in with -tags chipoison")
	}
	n := noc.NewNetwork("t")
	m := NewMsg(n, Message{TxnID: 5, Op: CompData, Addr: 0x80, Size: 64})
	Release(n, m)
	if m.TxnID != ^uint32(0) || m.Addr != ^uint64(0) || m.Requester != -1 {
		t.Fatalf("released message not poisoned: %+v", *m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a poisoned message's channel did not panic")
		}
	}()
	m.Op.Channel()
}
