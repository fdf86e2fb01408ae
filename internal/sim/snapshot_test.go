package sim

import (
	"errors"
	"hash/fnv"
	"math"
	"testing"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutU8(0xAB)
	e.PutU16(0xBEEF)
	e.PutU32(0xDEADBEEF)
	e.PutU64(0x0123456789ABCDEF)
	e.PutI64(-42)
	e.PutUvarint(300)
	e.PutVarint(-42)
	e.PutBool(true)
	e.PutBool(false)
	e.PutF64(3.14159)
	e.PutF64(math.Copysign(0, -1))
	e.PutBytes([]byte{1, 2, 3})
	e.PutString("hello")
	e.PutUvarint(3) // a count, followed by its three one-byte elements
	e.PutU8(10)
	e.PutU8(20)
	e.PutU8(30)

	d := NewDecoder(e.Data())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := int64(d.U64()); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -42 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.Signbit(got) || got != 0 {
		t.Errorf("F64 negative zero = %v (signbit %v)", got, math.Signbit(got))
	}
	if got := d.Bytes(16); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.String(16); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Count(10); got != 3 {
		t.Errorf("Count = %d", got)
	}
	for i, want := range []uint8{10, 20, 30} {
		if got := d.U8(); got != want {
			t.Errorf("element %d = %d, want %d", i, got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("unexpected decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder()
	e.PutU64(12345)
	e.PutString("payload")
	full := e.Data()
	// Every proper prefix must produce an error somewhere, never a panic.
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		d.U64()
		d.String(64)
		if d.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // fails: truncated
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = d.U8() // byte is physically present, but the decoder is poisoned
	if d.Err() != first {
		t.Errorf("error not sticky: %v vs %v", d.Err(), first)
	}
}

func TestDecoderBoolStrict(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted byte 2")
	}
}

func TestDecoderCountBounds(t *testing.T) {
	e := NewEncoder()
	e.PutUvarint(1 << 30) // claims a billion elements
	d := NewDecoder(e.Data())
	if got := d.Count(1 << 31); got != 0 || d.Err() == nil {
		t.Errorf("Count accepted %d elements with 0 bytes remaining", got)
	}

	e = NewEncoder()
	e.PutUvarint(5)
	d = NewDecoder(append(e.Data(), make([]byte, 8)...))
	if got := d.Count(4); got != 0 || d.Err() == nil {
		t.Errorf("Count accepted %d over max 4", got)
	}

	e = NewEncoder()
	e.PutUvarint(1<<64 - 1) // a count that does not fit an int
	d = NewDecoder(e.Data())
	if got := d.Count(1 << 31); got != 0 || d.Err() == nil {
		t.Errorf("Count accepted %d from a 64-bit claim", got)
	}
}

func TestDecoderBytesLimit(t *testing.T) {
	e := NewEncoder()
	e.PutBytes(make([]byte, 100))
	d := NewDecoder(e.Data())
	if got := d.Bytes(10); got != nil || d.Err() == nil {
		t.Error("Bytes accepted 100 bytes over limit 10")
	}
}

func TestSnapshotHeaderRoundTrip(t *testing.T) {
	want := SnapshotHeader{Version: SnapshotVersion, TopoHash: 0xFEEDFACECAFEBEEF, Cycle: 123456}
	e := NewEncoder()
	WriteSnapshotHeader(e, want)
	got, err := ReadSnapshotHeader(NewDecoder(e.Data()))
	if err != nil {
		t.Fatalf("ReadSnapshotHeader: %v", err)
	}
	if got != want {
		t.Errorf("header = %+v, want %+v", got, want)
	}
}

func TestSnapshotHeaderRejects(t *testing.T) {
	good := NewEncoder()
	WriteSnapshotHeader(good, SnapshotHeader{Version: SnapshotVersion, TopoHash: 1, Cycle: 2})

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTASNAP\x01\x00"),
		"truncated": good.Data()[:len(good.Data())-3],
	}
	future := NewEncoder()
	WriteSnapshotHeader(future, SnapshotHeader{Version: SnapshotVersion + 1, TopoHash: 1, Cycle: 2})
	cases["future version"] = future.Data()

	for name, data := range cases {
		if _, err := ReadSnapshotHeader(NewDecoder(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeErrorsAreCorruptSnapshot: every decoder failure mode must
// satisfy errors.Is(err, ErrCorruptSnapshot) so persistence layers can
// branch on "damaged bytes" with one check.
func TestDecodeErrorsAreCorruptSnapshot(t *testing.T) {
	cases := map[string]func(d *Decoder){
		"truncated":    func(d *Decoder) { d.U64() },
		"bad bool":     func(d *Decoder) { d.Bool() },
		"count range":  func(d *Decoder) { d.Count(0) },
		"bytes limit":  func(d *Decoder) { d.Bytes(0) },
		"explicit":     func(d *Decoder) { d.Fail("boom") },
		"bad header":   func(d *Decoder) { _, _ = ReadSnapshotHeader(d) },
		"old version":  func(d *Decoder) { _, _ = ReadSnapshotHeader(d) },
		"frame header": func(d *Decoder) { d.U32(); d.U32() },
	}
	inputs := map[string][]byte{
		"truncated":    {1, 2},
		"bad bool":     {7},
		"count range":  {9, 0, 0, 0},
		"bytes limit":  {9, 0, 0, 0},
		"explicit":     {},
		"bad header":   []byte("NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		"old version":  append([]byte(SnapshotMagic), 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0),
		"frame header": {0},
	}
	for name, input := range inputs {
		d := NewDecoder(input)
		cases[name](d)
		if err := d.Err(); err == nil {
			t.Errorf("%s: no error", name)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrCorruptSnapshot", name, err)
		}
	}
}

func FuzzReadSnapshotHeader(f *testing.F) {
	e := NewEncoder()
	WriteSnapshotHeader(e, SnapshotHeader{Version: SnapshotVersion, TopoHash: 7, Cycle: 9})
	f.Add(e.Data())
	f.Add([]byte(SnapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		h, err := ReadSnapshotHeader(d)
		// Hostile bytes must error, never panic; success implies a
		// well-formed current-version header.
		if err == nil && h.Version != SnapshotVersion {
			t.Fatalf("accepted header with version %d", h.Version)
		}
	})
}

func TestFNV1aMatchesStdlib(t *testing.T) {
	data := []byte("application defined on-chip networks")
	h := fnv.New64a()
	h.Write(data)
	if got := FNV1a(data); got != h.Sum64() {
		t.Errorf("FNV1a = %#x, stdlib = %#x", got, h.Sum64())
	}

	// The U64 fold must equal hashing the value's little-endian bytes.
	h2 := fnv.New64a()
	v := uint64(0x1122334455667788)
	h2.Write([]byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11})
	if got := FNV1aFoldU64(FNVOffset, v); got != h2.Sum64() {
		t.Errorf("FNV1aFoldU64 = %#x, stdlib = %#x", got, h2.Sum64())
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	e := NewEncoder()
	r.SnapState(Saving(e))
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}

	var r2 RNG
	r2.SnapState(Loading(NewDecoder(e.Data())))
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("draw %d after loading: %#x want %#x", i, got, w)
		}
	}
}

// TestCodecMapRoundTrip walks a map of pointers, the zero key included:
// the bytes do not depend on insertion order, every loaded entry is its
// own object, and keys that arrive out of order are refused.
func TestCodecMapRoundTrip(t *testing.T) {
	type cell struct{ v uint64 }
	walk := func(c *Codec, m *map[uint64]*cell) {
		Map(c, m, 16, func(a, b uint64) bool { return a < b }, func(k *uint64, p **cell) {
			if *p == nil {
				*p = &cell{}
			}
			c.U64(k)
			c.U64(&(*p).v)
		})
	}
	m := map[uint64]*cell{64: {2}, 0: {1}, 128: {3}}
	e := NewEncoder()
	walk(Saving(e), &m)
	// entries is a map's wire form: the count, then each key and its
	// value in the order given.
	entries := func(kvs ...[2]uint64) []byte {
		e := NewEncoder()
		e.PutUvarint(uint64(len(kvs)))
		for _, kv := range kvs {
			e.PutUvarint(kv[0])
			e.PutUvarint(kv[1])
		}
		return e.Data()
	}
	if want := entries([2]uint64{0, 1}, [2]uint64{64, 2}, [2]uint64{128, 3}); string(e.Data()) != string(want) {
		t.Fatalf("map saved as %x, want %x", e.Data(), want)
	}

	var got map[uint64]*cell
	c := Loading(NewDecoder(e.Data()))
	if walk(c, &got); c.Err() != nil {
		t.Fatalf("load: %v", c.Err())
	}
	if len(got) != 3 || got[0].v != 1 || got[64].v != 2 || got[128].v != 3 || got[0] == got[64] {
		t.Fatalf("loaded %v", got)
	}
	e2 := NewEncoder()
	if walk(Saving(e2), &got); string(e2.Data()) != string(e.Data()) {
		t.Fatal("loaded map re-encodes differently")
	}

	swapped := entries([2]uint64{64, 2}, [2]uint64{0, 1}, [2]uint64{128, 3}) // entries 0 and 1 trade places
	c = Loading(NewDecoder(swapped))
	if walk(c, &got); !errors.Is(c.Err(), ErrCorruptSnapshot) {
		t.Fatalf("out-of-order keys: err = %v", c.Err())
	}
}
