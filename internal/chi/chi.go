// Package chi implements a CHI-flavoured transaction layer modelled on
// the AMBA5-CHI properties the paper's NoC depends on (Section 3.2): a
// packetized, layered protocol with high-frequency non-blocking
// transfers, out-of-order completion, and per-node transaction buffers
// that the bufferless NoC reuses as its destination-side buffering.
//
// This is not a bit-accurate CHI implementation (the specification is
// proprietary); it reproduces the architectural contract: four message
// channels, request/response transaction matching, and single-flit
// transactions whose independence makes the NoC stateless.
package chi

import (
	"fmt"

	"chipletnoc/internal/noc"
)

// Opcode identifies a CHI-style message type.
type Opcode int

// Request, snoop, response and data opcodes (the subset our memory system
// exercises).
const (
	// Requests (REQ channel)
	ReadNoSnp     Opcode = iota // uncached read (DDR/HBM direct)
	ReadShared                  // coherent read, expects S or E
	ReadUnique                  // coherent read-for-ownership
	WriteNoSnp                  // uncached write
	WriteBackFull               // dirty line eviction
	WriteUnique                 // coherent full-line write
	// Snoops (SNP channel)
	SnpShared
	SnpUnique
	// Responses (RSP channel)
	Comp     // completion without data
	DBIDResp // write-data buffer grant
	SnpResp  // snoop response without data
	// Data (DAT channel)
	CompData    // completion with data
	SnpRespData // snoop response with data
	NonCopyBackWrData
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	names := [...]string{
		"ReadNoSnp", "ReadShared", "ReadUnique", "WriteNoSnp", "WriteBackFull",
		"WriteUnique", "SnpShared", "SnpUnique", "Comp", "DBIDResp", "SnpResp",
		"CompData", "SnpRespData", "NonCopyBackWrData",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Channel is one of CHI's four physical channels.
type Channel int

// The four CHI channels.
const (
	REQ Channel = iota
	RSP
	SNP
	DAT
)

// Channel returns the channel an opcode travels on.
func (o Opcode) Channel() Channel {
	switch o {
	case ReadNoSnp, ReadShared, ReadUnique, WriteNoSnp, WriteBackFull, WriteUnique:
		return REQ
	case SnpShared, SnpUnique:
		return SNP
	case Comp, DBIDResp, SnpResp:
		return RSP
	case CompData, SnpRespData, NonCopyBackWrData:
		return DAT
	default:
		panic(fmt.Sprintf("chi: opcode %v has no channel", o))
	}
}

// CarriesData reports whether the opcode moves a cache line.
func (o Opcode) CarriesData() bool { return o.Channel() == DAT }

// IsRequest reports whether the opcode opens a transaction.
func (o Opcode) IsRequest() bool { return o.Channel() == REQ }

// Message is one CHI-style message. Per Section 3.4.3 each message maps
// to exactly one flit with full header information.
//
// Messages minted with NewMsg go back to their network's free-list with
// Release (recycle.go states the rule once): a response or write-data
// beat is released by the device that takes it off the fabric, a request
// by its issuer when the transaction retires, unless it was ever re-sent.
// A message built any other way is left to the garbage collector.
type Message struct {
	// TxnID identifies the transaction at the requester; responses echo
	// it so out-of-order completion can be matched.
	TxnID uint32
	// mark is the state walk's identity mark (noc.Snap, reached through
	// this package's MsgCodec.Ref): 1 + the message's index in the walk
	// under way, 0 outside one. It fills the word TxnID leaves free.
	mark uint32
	Op   Opcode
	// Addr is the cache-line-aligned physical address.
	Addr uint64
	// Requester is the node the final completion must reach.
	Requester noc.NodeID
	// Size is the transfer granule in bytes; zero means LineSize. The
	// Server-CPU moves 64 B L3 lines; the AI die's L2 lines are larger.
	Size int

	// Harness bookkeeping, owned by the issuing requester while the
	// transaction is open — not wire state. Keeping the issue cycle,
	// remaining read beats and resolved destination on the tracked
	// request replaces three per-transaction side-table maps that
	// otherwise sit on the simulator's hot path.
	IssuedAt  uint64
	BeatsLeft int
	RetryDst  noc.NodeID

	// freed guards the free-list against a double release (see Release).
	freed bool
}

// LineSize is the default coherence granule in bytes.
const LineSize = 64

// Bytes returns the transfer size (Size, defaulted to LineSize).
func (m *Message) Bytes() int {
	if m.Size > 0 {
		return m.Size
	}
	return LineSize
}

// BeatBytes is the data carried by one flit: the link width. The
// high-speed wire fabric of Table 4 runs a 2.5x-wide bus, which we model
// as 256-byte beats for the AI die class. Transfers larger than one beat travel as bursts of
// independent single-beat flits (bufferless routing requires every flit
// to be self-contained).
const BeatBytes = 256

// Beats returns how many data flits a transfer of the message's size
// needs.
func (m *Message) Beats() int {
	b := (m.Bytes() + BeatBytes - 1) / BeatBytes
	if b < 1 {
		b = 1
	}
	return b
}

// FlitKind maps a message to the NoC's flit taxonomy.
func (m *Message) FlitKind() noc.Kind {
	switch m.Op.Channel() {
	case DAT:
		return noc.KindData
	case SNP:
		return noc.KindSnoop
	case RSP:
		return noc.KindAck
	default:
		return noc.KindRequest
	}
}

// PayloadBytes is the data payload one flit of this message carries: one
// beat for data-carrying (DAT channel) opcodes, zero for everything
// else. Writes follow the full CHI flow — request, DBIDResp grant, data
// beats, completion — so write data travels on NonCopyBackWrData flits,
// not in the request.
func (m *Message) PayloadBytes() int {
	if m.Op.CarriesData() {
		return m.Bytes() / m.Beats()
	}
	return 0
}

// IsWrite reports whether the request carries write data.
func (m *Message) IsWrite() bool {
	switch m.Op {
	case WriteNoSnp, WriteBackFull, WriteUnique:
		return true
	}
	return false
}

// NewFlit wraps the message in a network flit from src to dst.
func (m *Message) NewFlit(n *noc.Network, src, dst noc.NodeID) *noc.Flit {
	f := n.NewFlit(src, dst, m.FlitKind(), m.PayloadBytes())
	f.Msg = m
	return f
}

// MsgOf extracts the chi message from a flit, or nil.
func MsgOf(f *noc.Flit) *Message {
	m, _ := f.Msg.(*Message)
	return m
}

// Tracker manages a node's outstanding-transaction table: the
// finite, non-blocking CHI transaction buffers. Allocation fails when the
// table is full (the issuer retries), completions can arrive in any
// order.
type Tracker struct {
	capacity int
	nextID   uint32
	open     map[uint32]*Message
}

// NewTracker creates a tracker with the given table capacity.
func NewTracker(capacity int) *Tracker {
	if capacity <= 0 {
		panic("chi: tracker capacity must be positive")
	}
	return &Tracker{capacity: capacity, open: make(map[uint32]*Message, capacity)}
}

// Outstanding returns the number of open transactions.
func (t *Tracker) Outstanding() int { return len(t.open) }

// Full reports whether a new transaction can be opened.
func (t *Tracker) Full() bool { return len(t.open) >= t.capacity }

// Open allocates a transaction ID for a request message, filling in
// TxnID. It returns false when the table is full.
func (t *Tracker) Open(m *Message) bool {
	if !m.Op.IsRequest() {
		panic(fmt.Sprintf("chi: opening transaction with non-request %v", m.Op))
	}
	if t.Full() {
		return false
	}
	// Find a free ID; with a table much smaller than 2^32 this loop
	// terminates quickly.
	for {
		t.nextID++
		if _, busy := t.open[t.nextID]; !busy {
			break
		}
	}
	m.TxnID = t.nextID
	t.open[m.TxnID] = m
	return true
}

// Lookup returns the open request for a TxnID, or nil.
func (t *Tracker) Lookup(txnID uint32) *Message {
	return t.open[txnID]
}

// Complete closes a transaction, returning the original request. Unknown
// IDs return nil (a protocol error the caller surfaces).
func (t *Tracker) Complete(txnID uint32) *Message {
	m, ok := t.open[txnID]
	if !ok {
		return nil
	}
	delete(t.open, txnID)
	return m
}
