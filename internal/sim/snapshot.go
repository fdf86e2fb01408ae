// Snapshot primitives: a minimal binary codec — fixed-width
// little-endian framing, canonical varints for walked integers — and the
// versioned checkpoint header every simulator snapshot starts with.
//
// The simulator's checkpoint/resume subsystem deliberately avoids
// encoding/gob and reflection: snapshots are parsed from untrusted input
// (a daemon accepts resume files over HTTP), so every read is explicit,
// length-bounded and returns an error instead of panicking, and the byte
// layout is a documented format rather than an implementation detail of
// the Go runtime.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// SnapshotMagic opens every checkpoint stream.
const SnapshotMagic = "NOCSNAP1"

// SnapshotTrailerMagic closes every sealed (v3+) checkpoint stream. A
// file that ends with anything else was torn mid-write or truncated.
const SnapshotTrailerMagic = "NOCSEAL1"

// SnapshotVersion is the current snapshot layout version. Any change to
// the serialized layout of any component must bump it; readers reject
// every other version (there is no cross-version migration — a
// checkpoint is a resume token for the build that wrote it, not an
// archival format). Version 2: flit identity became a per-source-node
// sequence vector (one counter per node) instead of a single global
// counter. Version 3: snapshots became self-verifying — the header and
// every section carry a CRC32-C seal, and the stream ends in a
// length+checksum trailer, so truncation, torn writes and bit rot
// surface as ErrCorruptSnapshot instead of a garbage-state resume.
// Version 4: inter-die bridge flow control became latency-delayed
// credit return — the L2 bridge section gained per-half credit windows
// and in-flight credit pulses, and its counters went per-half. Version 5:
// a requester keeps one latency histogram, not three (the per-class read
// and write histograms were read by nothing). Version 6: walked integers
// travel as canonical varints (signed ones zigzag-encoded) and latency
// samples, whole numbers of cycles, as varints, instead of eight fixed
// bytes each.
const SnapshotVersion = 6

// ErrCorruptSnapshot marks every integrity failure while reading a
// snapshot: truncation, bad magic, unsupported version, checksum
// mismatch, out-of-range counts. Callers branch on it with errors.Is to
// distinguish "the bytes are damaged" (quarantine and requeue) from
// semantic mismatches such as a wrong topology.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// castagnoli is the CRC32-C polynomial table; CRC32-C has hardware
// support on amd64/arm64, so sealing costs ~1 cycle/byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of data.
func CRC32C(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Encoder accumulates a snapshot in memory: fixed-width little-endian
// framing and the varints a Codec walk writes.
// Encoding cannot fail: the only error source in the snapshot pipeline
// is the final write to the destination.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderSize returns an empty encoder with room for size bytes, for
// callers that know roughly what they are about to encode: append grows a
// large slice by a quarter at a time, so a multi-megabyte snapshot built
// from nothing is allocated about five times over and copied four.
func NewEncoderSize(size int) *Encoder { return &Encoder{buf: make([]byte, 0, size)} }

// Data returns the accumulated bytes (aliased, valid until the next Put).
func (e *Encoder) Data() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// PutU8 appends one byte.
func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }

// PutU16 appends a little-endian uint16.
func (e *Encoder) PutU16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// PutU32 appends a little-endian uint32.
func (e *Encoder) PutU32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// PutU64 appends a little-endian uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// PutI64 appends a two's-complement int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutUvarint appends v as an encoding/binary varint: low seven bits
// first, the top bit of each byte marking a continuation, one byte below
// 128, ten at most, and always the shortest form (Decoder.Uvarint
// accepts no other).
func (e *Encoder) PutUvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// PutVarint appends v zigzag-encoded (0, -1, 1, -2, … map to 0, 1, 2,
// 3, …) as a varint, so a small value of either sign — a -1 sentinel, a
// node ID — takes one byte.
func (e *Encoder) PutVarint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}

// PutF64 appends a float64 as its IEEE-754 bit pattern, which round-trips
// exactly (including NaN payloads and signed zeros).
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutBytes appends a length-prefixed byte string.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads a snapshot back. Errors are sticky: after the first
// failure every further read returns a zero value and Err() reports the
// original cause, so decode paths can read a whole record and check the
// error once. No input — truncated, oversized, or hostile — makes a
// Decoder panic.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail records a decode error (the first one wins). Every decode
// failure wraps ErrCorruptSnapshot: a Decoder only ever reads snapshot
// bytes, so any malformed input is by definition a damaged snapshot.
func (d *Decoder) Fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: offset %d: %s: %w", d.off, fmt.Sprintf(format, args...), ErrCorruptSnapshot)
	}
}

// need reserves n bytes, failing the decoder when they are not there.
// The success path is small enough to inline into every read.
func (d *Decoder) need(n int) bool {
	return d.err == nil && (len(d.buf)-d.off >= n || d.short(n))
}

// short records a truncation, out of line so need stays inlinable.
//
//go:noinline
func (d *Decoder) short(n int) bool {
	d.Fail("truncated: need %d bytes, have %d", n, d.Remaining())
	return false
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := uint16(d.buf[d.off]) | uint16(d.buf[d.off+1])<<8
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	d.off += 8
	return v
}

// Uvarint reads a varint written by PutUvarint. Only that encoding is
// accepted, so whatever decodes re-encodes to the same bytes: a varint
// cut short, one whose tenth byte is above 1 (more than 64 bits, or an
// eleventh byte), and a non-minimal one (a zero final byte after the
// first) are all corrupt. The one-byte case is inlined.
func (d *Decoder) Uvarint() uint64 {
	if d.err == nil && d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		v := d.buf[d.off]
		d.off++
		return uint64(v)
	}
	return d.uvarintLong()
}

// uvarintLong is Uvarint past the one-byte case.
func (d *Decoder) uvarintLong() uint64 {
	if d.err != nil {
		return 0
	}
	b := d.buf[d.off:]
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		d.Fail("truncated varint")
		return 0
	case n < 0:
		d.Fail("varint overflows 64 bits")
		return 0
	case n > 1 && b[n-1] == 0:
		d.Fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint written by PutVarint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// uvarint32 reads a varint that must fit a uint32.
func (d *Decoder) uvarint32() uint32 {
	u := d.Uvarint()
	if u > math.MaxUint32 {
		d.Fail("varint %d overflows uint32", u)
		return 0
	}
	return uint32(u)
}

// Bool reads one byte as a bool; any value other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("invalid bool byte")
		return false
	}
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a varint element count and bounds it: hostile input cannot
// claim more elements than the remaining bytes could possibly hold (each
// element costs at least one byte; a caller whose elements are wider
// passes the tighter max), so decode loops are O(input), never
// O(claimed).
func (d *Decoder) Count(max int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) || int(n) > max {
		d.Fail("count %d out of range (max %d, %d bytes left)", n, max, d.Remaining())
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string of at most max bytes. The
// returned slice aliases the decoder's buffer.
func (d *Decoder) Bytes(max int) []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > max {
		d.Fail("byte string of %d exceeds limit %d", n, max)
		return nil
	}
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// String reads a length-prefixed string of at most max bytes.
func (d *Decoder) String(max int) string { return string(d.Bytes(max)) }

// Mark returns the current offset — the start of a section about to be
// written (Encoder) or read (Decoder), later passed to SealSection or
// VerifySection.
func (e *Encoder) Mark() int { return len(e.buf) }

// SealSection appends the CRC32-C of everything encoded since start.
// Pair with Decoder.VerifySection.
func (e *Encoder) SealSection(start int) { e.PutU32(CRC32C(e.buf[start:])) }

// Mark returns the current read offset, the start of a section.
func (d *Decoder) Mark() int { return d.off }

// VerifySection reads the u32 seal written by SealSection and checks it
// covers the bytes consumed since start; a mismatch poisons the decoder
// with an ErrCorruptSnapshot-wrapping error naming the section.
func (d *Decoder) VerifySection(start int, what string) {
	if d.err != nil {
		return
	}
	end := d.off
	want := d.U32()
	if d.err != nil {
		return
	}
	if got := CRC32C(d.buf[start:end]); got != want {
		d.Fail("%s section checksum %#08x does not match seal %#08x", what, got, want)
	}
}

// snapshotTrailerSize is u64 payload length + u32 whole-payload CRC32-C
// + the closing magic.
const snapshotTrailerSize = 8 + 4 + len(SnapshotTrailerMagic)

// WriteSnapshotTrailer seals the whole stream: it appends the payload
// length, the CRC32-C of every byte so far, and the trailer magic. It
// must be the final write — the trailer is what lets a reader prove the
// file is complete and untampered before decoding a single field.
func WriteSnapshotTrailer(e *Encoder) {
	n := uint64(len(e.buf))
	e.PutU64(n)
	e.PutU32(CRC32C(e.buf[:n]))
	e.buf = append(e.buf, SnapshotTrailerMagic...)
}

// VerifySnapshotFrame validates a sealed stream end to end — trailer
// magic present, recorded length equal to the actual length, whole-file
// checksum intact — and returns the payload (the bytes before the
// trailer). It runs before any field is decoded, so truncation, torn
// writes and bit flips anywhere in the file are caught without touching
// the state being restored. All failures wrap ErrCorruptSnapshot.
func VerifySnapshotFrame(data []byte) ([]byte, error) {
	if len(data) < snapshotTrailerSize {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the %d-byte trailer: %w",
			len(data), snapshotTrailerSize, ErrCorruptSnapshot)
	}
	t := data[len(data)-snapshotTrailerSize:]
	if string(t[12:]) != SnapshotTrailerMagic {
		return nil, fmt.Errorf("snapshot: missing trailer magic (torn or truncated write): %w", ErrCorruptSnapshot)
	}
	n := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
	if n != uint64(len(data)-snapshotTrailerSize) {
		return nil, fmt.Errorf("snapshot: trailer claims %d payload bytes, file has %d: %w",
			n, len(data)-snapshotTrailerSize, ErrCorruptSnapshot)
	}
	want := uint32(t[8]) | uint32(t[9])<<8 | uint32(t[10])<<16 | uint32(t[11])<<24
	if got := CRC32C(data[:n]); got != want {
		return nil, fmt.Errorf("snapshot: payload checksum %#08x does not match trailer %#08x (bit rot or torn write): %w",
			got, want, ErrCorruptSnapshot)
	}
	return data[:n], nil
}

// SnapshotHeader identifies a checkpoint stream: the layout version, a
// hash of the topology it snapshots (resume must rebuild the identical
// system first), and the simulated cycle the snapshot was taken at.
type SnapshotHeader struct {
	Version  uint16
	TopoHash uint64
	Cycle    uint64
}

// WriteSnapshotHeader encodes the magic and header fields, sealed with
// their own CRC32-C so a flipped bit in the topology hash or cycle is
// caught as corruption rather than misread as a different system.
func WriteSnapshotHeader(e *Encoder, h SnapshotHeader) {
	start := e.Mark()
	e.buf = append(e.buf, SnapshotMagic...)
	e.PutU16(h.Version)
	e.PutU64(h.TopoHash)
	e.PutU64(h.Cycle)
	e.SealSection(start)
}

// ReadSnapshotHeader decodes and validates a checkpoint header. Hostile
// or truncated input returns an error, never a panic; an unsupported
// version is an error (checkpoints are not a cross-version format). The
// version check runs before the seal check so a v2-era file is reported
// as "unsupported version", not as a checksum mismatch.
func ReadSnapshotHeader(d *Decoder) (SnapshotHeader, error) {
	var h SnapshotHeader
	start := d.Mark()
	if !d.need(len(SnapshotMagic)) {
		return h, d.Err()
	}
	magic := d.buf[d.off : d.off+len(SnapshotMagic)]
	d.off += len(SnapshotMagic)
	if string(magic) != SnapshotMagic {
		d.Fail("bad magic %q", magic)
		return h, d.Err()
	}
	h.Version = d.U16()
	h.TopoHash = d.U64()
	h.Cycle = d.U64()
	if err := d.Err(); err != nil {
		return h, err
	}
	if h.Version != SnapshotVersion {
		d.Fail("unsupported snapshot version %d (want %d)", h.Version, SnapshotVersion)
		return h, d.Err()
	}
	d.VerifySection(start, "header")
	return h, d.Err()
}

// SnapState walks the RNG's internal state for checkpointing.
func (r *RNG) SnapState(c *Codec) { c.U64(&r.state) }
