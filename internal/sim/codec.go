package sim

import (
	"fmt"
	"math"
	"slices"
)

// Codec is one direction of a state walk: it either saves into an
// Encoder or loads from a Decoder, and every field method takes a
// pointer so the same line of a walk does both — the encode order cannot
// drift from the restore order because there is only one order. Errors
// are sticky in both directions: after the first failure loads yield
// zero values, so a walk runs to its end and the caller checks Err once.
// Loaded values are untrusted; a walk range-checks them (Fail) before it
// indexes or allocates with them, exactly as it would after a Decoder
// read. The methods are kept small enough to inline: no closures, no
// interface dispatch per field. On the wire every walked integer — U32,
// U64, Uint, Int, Len, Match — is a canonical varint (Int zigzag); U8,
// Bool and F64 are their fixed one, one and eight bytes, and strings
// keep the Encoder's fixed u32 length prefix.
type Codec struct {
	e   *Encoder
	d   *Decoder
	err error // first save-side failure; load-side failures live in d
}

// Saving returns a codec that writes the walked state into e.
func Saving(e *Encoder) *Codec { return &Codec{e: e} }

// Loading returns a codec that overwrites the walked state from d.
func Loading(d *Decoder) *Codec { return &Codec{d: d} }

// Loading reports the direction. A walk branches on it only where the
// two directions genuinely differ (pointer ↔ position, sorted keys ↔ map
// construction, rebuilding derived state after a load).
func (c *Codec) Loading() bool { return c.d != nil }

// Err returns the first failure of the walk, or nil.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.Err()
	}
	return c.err
}

// Fail records a failure (the first one wins). While loading it is a
// decode failure and wraps ErrCorruptSnapshot; while saving it means the
// live state cannot be checkpointed.
func (c *Codec) Fail(format string, args ...interface{}) {
	if c.d != nil {
		c.d.Fail(format, args...)
	} else if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if c.d != nil {
		*v = c.d.U8()
	} else {
		c.e.PutU8(*v)
	}
}

// U32 walks a uint32 as a varint; a loaded value above 32 bits is
// corrupt.
func (c *Codec) U32(v *uint32) {
	if c.d != nil {
		*v = c.d.uvarint32()
	} else {
		c.e.PutUvarint(uint64(*v))
	}
}

// U64 walks a uint64 as a varint.
func (c *Codec) U64(v *uint64) {
	if c.d != nil {
		*v = c.d.Uvarint()
	} else {
		c.e.PutUvarint(*v)
	}
}

// Bool walks a bool as one strict 0/1 byte.
func (c *Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.PutBool(*v)
	}
}

// F64 walks a float64 as its IEEE-754 bit pattern.
func (c *Codec) F64(v *float64) {
	if c.d != nil {
		*v = c.d.F64()
	} else {
		c.e.PutF64(*v)
	}
}

// Bytes walks a length-prefixed byte string of at most max bytes; a
// loaded slice is a copy, not an alias of the decoder's buffer.
func (c *Codec) Bytes(v *[]byte, max int) {
	if c.d != nil {
		*v = append([]byte(nil), c.d.Bytes(max)...)
	} else {
		c.e.PutBytes(*v)
	}
}

// Int walks any signed integer type as a zigzag varint — node IDs,
// opcodes, -1 sentinels, counters declared as int. The wire form does
// not depend on the width, so narrowing a field moves no checkpoint
// byte; a loaded value the type cannot hold is corrupt.
func Int[T ~int8 | ~int16 | ~int32 | ~int | ~int64](c *Codec, v *T) {
	if c.d == nil {
		c.e.PutVarint(int64(*v))
		return
	}
	x := c.d.Varint()
	if int64(T(x)) != x {
		c.Fail("varint %d overflows %T", x, *v)
		x = 0
	}
	*v = T(x)
}

// Uint walks any uint64-based type (Cycle) as a varint.
func Uint[T ~uint64](c *Codec, v *T) {
	if c.d != nil {
		*v = T(c.d.Uvarint())
	} else {
		c.e.PutUvarint(uint64(*v))
	}
}

// Len walks an element count as a varint: saving writes n; loading reads
// a count bounded by max and by the bytes left (Decoder.Count), so loops
// over the result are O(input), never O(claimed).
func (c *Codec) Len(n, max int) int {
	if c.d != nil {
		return c.d.Count(max)
	}
	c.e.PutUvarint(uint64(n))
	return n
}

// Slice walks a slice's length: loading resizes *s to the bounded count
// with zeroed elements, keeping its backing array when it is large
// enough. The caller then walks the elements in place.
func Slice[T any](c *Codec, s *[]T, max int) {
	n := c.Len(len(*s), max)
	if c.d != nil {
		*s = append((*s)[:0], make([]T, n)...)
	}
}

// wholeSample reports whether v is a whole number in [0, 2^53), compared
// by bit pattern so -0 and NaN do not qualify; below 2^53 every such
// float64 converts to a uint64 and back exactly.
func wholeSample(v float64) bool {
	return v >= 0 && v < 1<<53 && math.Float64bits(float64(uint64(v))) == math.Float64bits(v)
}

// F64s walks a sample array in one call — sample arrays are most of a
// checkpoint's bytes, so they skip the per-field dispatch. The only
// arrays walked are latency histograms, whose samples are whole numbers
// of cycles, so the varint count is followed by each sample as a varint,
// about two bytes a sample. Saving fails on any other sample (a fraction,
// a negative, -0, NaN, 2^53 or more), as MatchString fails a save no load
// would accept; loading refuses a sample of 2^53 or more.
//
// The array may be held as *s followed by chunks (stats.Histogram's
// storage): saving writes the bytes of their concatenation, and loading
// fills *s alone with one exactly sized slice, so the caller drops its
// chunks.
func (c *Codec) F64s(s *[]float64, chunks ...[]float64) {
	if c.d == nil {
		n := len(*s)
		for _, ch := range chunks {
			n += len(ch)
		}
		c.e.PutUvarint(uint64(n))
		if c.putSamples(*s) {
			for _, ch := range chunks {
				if !c.putSamples(ch) {
					return
				}
			}
		}
		return
	}
	*s = make([]float64, c.d.Count(c.d.Remaining()))
	for i := range *s {
		u := c.d.Uvarint()
		if u >= 1<<53 {
			c.Fail("sample %d is not below 2^53", u)
			return
		}
		(*s)[i] = float64(u)
	}
}

// putSamples writes each sample as a varint, failing the save on the
// first one that is not a whole number below 2^53.
func (c *Codec) putSamples(s []float64) bool {
	for _, v := range s {
		if !wholeSample(v) {
			c.Fail("sample %v is not a whole number below 2^53", v)
			return false
		}
		c.e.PutUvarint(uint64(v))
	}
	return true
}

// Map walks a map as its size and then one walk(&key, &value) per entry.
// Saving visits the entries in less order, which makes the bytes
// independent of map iteration order, and hands walk copies of the stored
// key and value. Loading replaces *m with a new map, hands walk a zero
// key and a zero value to fill (a pointer value arrives nil: walk
// allocates it) and inserts the pair afterwards, so no entry can alias
// another; keys must arrive strictly ascending, as saving writes them.
// One key/value pair serves every entry of a call, so a walk allocates
// the pair, the sorted keys saving and the map loading, not a pair per
// entry.
func Map[K comparable, V any](c *Codec, m *map[K]V, max int, less func(a, b K) bool, walk func(k *K, v *V)) {
	n := c.Len(len(*m), max)
	if c.d != nil {
		*m = make(map[K]V, n)
	}
	if n == 0 {
		return
	}
	var p, zero struct {
		k K
		v V
	}
	if c.d == nil {
		keys := make([]K, 0, n)
		for k := range *m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b K) int {
			if less(a, b) {
				return -1
			}
			if less(b, a) {
				return 1
			}
			return 0
		})
		for _, k := range keys {
			p.k, p.v = k, (*m)[k]
			walk(&p.k, &p.v)
		}
		return
	}
	var prev K
	for i := 0; i < n; i++ {
		p = zero
		walk(&p.k, &p.v)
		if i > 0 && !less(prev, p.k) {
			c.Fail("map key %v out of order (after %v)", p.k, prev)
		}
		if c.Err() != nil {
			return
		}
		(*m)[p.k], prev = p.v, p.k
	}
}

// Match walks a uint32 build-shape value — a count, position or capacity
// the snapshot records so it can only restore into an identically built
// system — and fails the load when the recorded value differs from v.
func (c *Codec) Match(v int, what string) {
	got := uint32(v)
	c.U32(&got)
	if int(got) != v {
		c.Fail("%s %d does not match %d", what, got, v)
	}
}

// MatchBool is Match for a presence or mode flag.
func (c *Codec) MatchBool(v bool, what string) {
	got := v
	c.Bool(&got)
	if got != v {
		c.Fail("%s %v does not match build (%v)", what, got, v)
	}
}

// MatchString is Match for a name of at most max bytes; a longer one
// fails the save too, or it would write a snapshot no load accepts.
func (c *Codec) MatchString(v string, max int, what string) {
	if len(v) > max {
		c.Fail("%s of %d bytes exceeds the limit of %d", what, len(v), max)
	} else if c.d == nil {
		c.e.PutString(v)
	} else if got := c.d.String(max); got != v {
		c.Fail("%s %q does not match %q", what, got, v)
	}
}
