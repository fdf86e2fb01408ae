package sim

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestUvarintEdges pins the varint at its boundaries: the bytes written,
// the value read back, and nothing left over.
func TestUvarintEdges(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		want []byte
	}{
		{0, []byte{0}},
		{127, []byte{0x7f}},
		{128, []byte{0x80, 0x01}},
		{1<<32 - 1, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{1<<64 - 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	} {
		e := NewEncoder()
		e.PutUvarint(tc.v)
		if !bytes.Equal(e.Data(), tc.want) {
			t.Errorf("PutUvarint(%d) = %x, want %x", tc.v, e.Data(), tc.want)
		}
		d := NewDecoder(e.Data())
		if got := d.Uvarint(); got != tc.v || d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("Uvarint(%x) = %d (err %v, %d left), want %d", tc.want, got, d.Err(), d.Remaining(), tc.v)
		}
	}
}

// TestVarintZigzag: small magnitudes of either sign take one byte, and
// the extremes round-trip.
func TestVarintZigzag(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		size int
	}{
		{0, 1}, {-1, 1}, {1, 1}, {-64, 1}, {63, 1}, {64, 2},
		{math.MinInt64, 10}, {math.MaxInt64, 10},
	} {
		e := NewEncoder()
		e.PutVarint(tc.v)
		if e.Len() != tc.size {
			t.Errorf("PutVarint(%d) took %d bytes, want %d", tc.v, e.Len(), tc.size)
		}
		d := NewDecoder(e.Data())
		if got := d.Varint(); got != tc.v || d.Err() != nil {
			t.Errorf("Varint round trip of %d = %d (err %v)", tc.v, got, d.Err())
		}
	}
}

// TestCodecRejectsNonCanonical: every input the encoder would not write
// fails the load as a corrupt snapshot.
func TestCodecRejectsNonCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		walk func(c *Codec)
	}{
		"truncated":          {[]byte{0x80}, func(c *Codec) { var v uint64; c.U64(&v) }},
		"truncated long":     {[]byte{0xff, 0xff, 0xff}, func(c *Codec) { var v uint64; c.U64(&v) }},
		"eleven bytes":       {bytes.Repeat([]byte{0x80}, 11), func(c *Codec) { var v uint64; c.U64(&v) }},
		"tenth byte above 1": {append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(c *Codec) { var v uint64; c.U64(&v) }},
		"non-minimal zero":   {[]byte{0x80, 0x00}, func(c *Codec) { var v uint64; c.U64(&v) }},
		"non-minimal 127":    {[]byte{0xff, 0x80, 0x00}, func(c *Codec) { var v uint64; c.U64(&v) }},
		"u32 overflow":       {[]byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(c *Codec) { var v uint32; c.U32(&v) }},
		"int32 overflow":     {[]byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(c *Codec) { var v int32; Int(c, &v) }},
		"int32 underflow":    {[]byte{0x81, 0x80, 0x80, 0x80, 0x10}, func(c *Codec) { var v int32; Int(c, &v) }},
		"count over max":     {[]byte{5, 0, 0, 0, 0, 0}, func(c *Codec) { c.Len(0, 4) }},
		"match differs":      {[]byte{8}, func(c *Codec) { c.Match(7, "shape") }},
		"sample 2^53":        {[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}, func(c *Codec) { var s []float64; c.F64s(&s) }},
		"samples over bytes": {[]byte{3, 1}, func(c *Codec) { var s []float64; c.F64s(&s) }},
	} {
		c := Loading(NewDecoder(tc.data))
		tc.walk(c)
		if err := c.Err(); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// TestIntWidthBounds: Int writes the same zigzag varint whatever the
// field's width, so a narrowed field keeps its checkpoint bytes; loading
// is what the width changes. For each width the extremes round-trip byte
// for byte, and a varint one past either end fails as a corrupt snapshot.
func TestIntWidthBounds(t *testing.T) {
	checkIntWidth[int8](t, "int8", math.MinInt8, math.MaxInt8)
	checkIntWidth[int16](t, "int16", math.MinInt16, math.MaxInt16)
	checkIntWidth[int32](t, "int32", math.MinInt32, math.MaxInt32)
	checkIntWidth[int](t, "int", math.MinInt, math.MaxInt)
}

func checkIntWidth[T ~int8 | ~int16 | ~int32 | ~int](t *testing.T, name string, lo, hi T) {
	t.Helper()
	for _, v := range []T{lo, hi} {
		e := NewEncoder()
		Int(Saving(e), &v)
		var got T
		c := Loading(NewDecoder(e.Data()))
		Int(c, &got)
		again := NewEncoder()
		Int(Saving(again), &got)
		if got != v || c.Err() != nil || !bytes.Equal(again.Data(), e.Data()) {
			t.Errorf("%s: %d loaded as %d (err %v), re-encoded %x from %x", name, v, got, c.Err(), again.Data(), e.Data())
		}
	}
	var past [][]byte
	if int64(hi) < math.MaxInt64 {
		for _, x := range []int64{int64(lo) - 1, int64(hi) + 1} {
			e := NewEncoder()
			e.PutVarint(x)
			past = append(past, e.Data())
		}
	} else {
		// Zigzag maps the int64 extremes to 2^64-2 and 2^64-1; one past
		// them is the ten-byte varint of 2^64.
		past = append(past, append(bytes.Repeat([]byte{0x80}, 9), 0x02))
	}
	for _, data := range past {
		var got T
		c := Loading(NewDecoder(data))
		if Int(c, &got); !errors.Is(c.Err(), ErrCorruptSnapshot) || got != 0 {
			t.Errorf("%s: varint %x loaded as %d (err %v), want ErrCorruptSnapshot", name, data, got, c.Err())
		}
	}
}

// TestF64sWholeSamples: whole non-negative samples below 2^53 travel as
// varints and round-trip bit for bit; anything else — -0, NaN, a
// fraction, a negative, 2^53 itself — fails the save.
func TestF64sWholeSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    []float64
		size int
	}{
		{"empty", []float64{}, 1},
		{"latencies", []float64{0, 1, 127, 128, 300}, 1 + 3 + 2*2},
		{"2^53-1", []float64{1<<53 - 1}, 1 + 8},
	} {
		e := NewEncoder()
		s := tc.s
		if err := saveSamples(e, s); err != nil || e.Len() != tc.size {
			t.Errorf("%s: saved %d bytes (err %v), want %d", tc.name, e.Len(), err, tc.size)
		}
		got := []float64{42} // loading replaces what was there
		c := Loading(NewDecoder(e.Data()))
		if c.F64s(&got); c.Err() != nil || len(got) != len(tc.s) {
			t.Fatalf("%s: loaded %v (err %v)", tc.name, got, c.Err())
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.s[i]) {
				t.Errorf("%s: sample %d = %v, want %v", tc.name, i, got[i], tc.s[i])
			}
		}
	}
	for _, v := range []float64{math.Copysign(0, -1), math.NaN(), 0.5, -1, 1 << 53} {
		if saveSamples(NewEncoder(), []float64{1, v}) == nil {
			t.Errorf("saving sample %v succeeded, want a failure", v)
		}
	}
}

// saveSamples saves s into e and returns the walk's error.
func saveSamples(e *Encoder, s []float64) error {
	c := Saving(e)
	c.F64s(&s)
	return c.Err()
}

// primitives is one of every Codec primitive, walked in a fixed order.
type primitives struct {
	u8  uint8
	b   bool
	u32 uint32
	u64 uint64
	i   int
	i32 int32
	cyc Cycle
	f   float64
	fs  []float64
	ids []uint32
}

func (p *primitives) walk(c *Codec) {
	c.U8(&p.u8)
	c.Bool(&p.b)
	c.U32(&p.u32)
	c.U64(&p.u64)
	Int(c, &p.i)
	Int(c, &p.i32)
	Uint(c, &p.cyc)
	c.F64(&p.f)
	c.F64s(&p.fs)
	Slice(c, &p.ids, 8)
	for i := range p.ids {
		c.U32(&p.ids[i])
	}
	c.Match(300, "shape")
}

func savePrimitives(p *primitives) []byte {
	e := NewEncoder()
	p.walk(Saving(e))
	return e.Data()
}

// FuzzCodecPrimitives holds the codec to its two properties: arbitrary
// values round-trip exactly, and arbitrary bytes either fail with
// ErrCorruptSnapshot or load values that save back to exactly the bytes
// consumed — the decoder accepts only what the encoder writes.
func FuzzCodecPrimitives(f *testing.F) {
	f.Add(uint64(0), int64(0), uint32(0), 0.0, uint8(0), []byte{})
	f.Add(uint64(1<<64-1), int64(math.MinInt64), uint32(1<<32-1), math.NaN(), uint8(3), []byte{0x80, 0x00})
	f.Add(uint64(128), int64(-1), uint32(300), 1234.0, uint8(2), savePrimitives(&primitives{fs: []float64{7}, ids: []uint32{1}}))
	f.Add(uint64(1<<53), int64(math.MaxInt64), uint32(7), math.Copysign(0, -1), uint8(5),
		savePrimitives(&primitives{fs: []float64{300, 1<<53 - 1}, i: -1}))
	f.Fuzz(func(t *testing.T, u uint64, i int64, w uint32, x float64, n uint8, data []byte) {
		p := primitives{
			u8: n, b: n&1 == 1, u32: w, u64: u, i: int(i), i32: int32(i), cyc: Cycle(u),
			f: x, fs: []float64{float64(w), float64(u >> 11), float64(n)}[:n%4], ids: []uint32{w, uint32(u), 0}[:n%4],
		}
		if err := saveSamples(NewEncoder(), []float64{x}); (err == nil) != wholeSample(x) {
			t.Fatalf("saving sample %v: err %v", x, err)
		}
		saved := savePrimitives(&p)
		var q primitives
		c := Loading(NewDecoder(saved))
		if q.walk(c); c.Err() != nil {
			t.Fatalf("saved primitives do not load: %v", c.Err())
		}
		if again := savePrimitives(&q); !bytes.Equal(again, saved) {
			t.Fatalf("round trip changed the bytes: %x then %x", saved, again)
		}
		if q.u64 != p.u64 || q.i != p.i || q.i32 != p.i32 || q.u32 != p.u32 || q.cyc != p.cyc ||
			math.Float64bits(q.f) != math.Float64bits(p.f) || len(q.fs) != len(p.fs) {
			t.Fatalf("round trip: saved %+v, loaded %+v", p, q)
		}
		for k := range q.fs {
			if math.Float64bits(q.fs[k]) != math.Float64bits(p.fs[k]) {
				t.Fatalf("sample %d: saved %v, loaded %v", k, p.fs[k], q.fs[k])
			}
		}

		d := NewDecoder(data)
		var r primitives
		c = Loading(d)
		if r.walk(c); c.Err() != nil {
			if !errors.Is(c.Err(), ErrCorruptSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSnapshot", c.Err())
			}
			return
		}
		consumed := data[:len(data)-d.Remaining()]
		if again := savePrimitives(&r); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted %x but it saves as %x", consumed, again)
		}
	})
}
