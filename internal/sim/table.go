package sim

import (
	"math/bits"
	"slices"
)

// Table is an open-addressed hash table from uint64 keys to V: the
// simulator's transaction tables (a CHI TxnID to its request, a memory
// controller's open write bursts), which the hardware they model keeps
// as finite buffers indexed by TxnID. A key's home slot is Fibonacci
// hashing's (the key times 2^64/φ, top bits), a collision probes the
// next slots in turn, and Delete shifts the rest of the probe run back
// over the hole instead of leaving a tombstone, so a lookup stops at the
// first empty slot. The slot array is a power of two at most three
// quarters full: an insert that would pass that doubles it, and nothing
// shrinks it, Clear included, so a table that has reached its working
// size allocates nothing more. The zero value is an empty table.
type Table[V any] struct {
	// full has one bit per slot, set when the slot holds an entry. It
	// comes first: a field-by-field perturbation of a table reaches it
	// before the storage.
	full  []uint64
	slots []tableSlot[V]
	n     int      // set bits in full
	keys  []uint64 // Keys' sort buffer, kept between calls
	// walked is the key/value pair WalkTable hands its walk: held here,
	// it costs no allocation per entry or per call.
	walked tableSlot[V]
}

type tableSlot[V any] struct {
	key uint64
	val V
}

// fibonacci is 2^64/φ rounded to odd: multiplying by it scatters
// consecutive keys (TxnIDs are issued in sequence) across the top bits.
const fibonacci = 0x9E3779B97F4A7C15

// minTableSlots is the length of a table's first slot array.
const minTableSlots = 8

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) used(i int) bool { return t.full[i>>6]&(1<<(i&63)) != 0 }

// home returns k's home slot; the table must have slots.
func (t *Table[V]) home(k uint64) int {
	return int((k * fibonacci) >> (64 - bits.TrailingZeros(uint(len(t.slots)))))
}

// find returns the slot holding k, or, when k is absent, the empty slot
// that ends its probe run (0 in a table without slots).
func (t *Table[V]) find(k uint64) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.used(i) {
		if t.slots[i].key == k {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if i, ok := t.find(k); ok {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put sets k's value, inserting k when it is absent.
func (t *Table[V]) Put(k uint64, v V) {
	i, ok := t.find(k)
	if !ok && (t.n+1)*4 > len(t.slots)*3 {
		t.Reserve(t.n + 1)
		i, _ = t.find(k)
	}
	t.slots[i] = tableSlot[V]{k, v}
	if !ok {
		t.full[i>>6] |= 1 << (i & 63)
		t.n++
	}
}

// Delete removes k, returning its value and whether it was present.
// Every later entry of the probe run whose home slot is not between the
// hole and itself moves back into the hole, which then moves to where
// that entry was; the run stays unbroken without tombstones.
func (t *Table[V]) Delete(k uint64) (V, bool) {
	i, ok := t.find(k)
	if !ok {
		var zero V
		return zero, false
	}
	v := t.slots[i].val
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.used(j); j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home is at or
		// before i on the way round to j.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.full[i>>6] &^= 1 << (i & 63)
	t.n--
	return v, true
}

// Clear removes every entry and keeps the slot array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	clear(t.full)
	t.n = 0
}

// Reserve grows the slot array, doubling it from minTableSlots, until n
// entries fit at three quarters full. A table sized once from the bound
// on its entries never grows again.
func (t *Table[V]) Reserve(n int) {
	size := max(len(t.slots), minTableSlots)
	for n*4 > size*3 {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old, oldFull := t.slots, t.full
	t.slots = make([]tableSlot[V], size)
	t.full = make([]uint64, (size+63)/64)
	for i := range old {
		if oldFull[i>>6]&(1<<(i&63)) != 0 {
			j, _ := t.find(old[i].key)
			t.slots[j] = old[i]
			t.full[j>>6] |= 1 << (j & 63)
		}
	}
}

// Keys returns the keys in ascending order, in a buffer the table keeps:
// it is valid until the next call.
func (t *Table[V]) Keys() []uint64 {
	t.keys = slices.Grow(t.keys[:0], t.n)
	for w, word := range t.full {
		for ; word != 0; word &= word - 1 {
			t.keys = append(t.keys, t.slots[w<<6|bits.TrailingZeros64(word)].key)
		}
	}
	slices.Sort(t.keys)
	return t.keys
}

// WalkTable walks a table as Map walks a map, and writes the same bytes:
// its size, then one walk(&key, &value) per entry in ascending key
// order. Saving hands walk copies of the stored key and value. Loading
// clears the table, keeping its slot array (grown at once to hold the
// count), hands walk a zero key and a zero value to fill (a pointer value
// arrives nil: walk allocates it) and inserts the pair afterwards; keys
// must arrive strictly ascending, as saving writes them. A walk into a
// table already large enough allocates nothing of its own either way.
func WalkTable[V any](c *Codec, t *Table[V], max int, walk func(k *uint64, v *V)) {
	p := &t.walked
	defer func() { *p = tableSlot[V]{} }()
	if c.d == nil {
		keys := t.Keys()
		c.Len(len(keys), max)
		for _, k := range keys {
			p.key = k
			p.val, _ = t.Get(k)
			walk(&p.key, &p.val)
		}
		return
	}
	n := c.Len(0, max)
	t.Clear()
	t.Reserve(n)
	var prev uint64
	for i := 0; i < n; i++ {
		*p = tableSlot[V]{}
		walk(&p.key, &p.val)
		if i > 0 && p.key <= prev {
			c.Fail("table key %d out of order (after %d)", p.key, prev)
		}
		if c.Err() != nil {
			return
		}
		t.Put(p.key, p.val)
		prev = p.key
	}
}

// Key32 walks a table key that holds a uint32 — a TxnID — exactly as U32
// walks the uint32.
func (c *Codec) Key32(k *uint64) {
	v := uint32(*k)
	c.U32(&v)
	*k = uint64(v)
}
