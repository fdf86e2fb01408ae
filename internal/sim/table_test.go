package sim

import (
	"bytes"
	"cmp"
	"errors"
	"math/bits"
	"testing"
)

// tableKeys is the key universe the table scripts draw from: keys that
// share a home slot at the first table size (a collision chain),
// keys homed in the last slot (probe runs that wrap the array), TxnIDs
// on both sides of 2^32, and a few small and extreme keys.
var tableKeys = func() []uint64 {
	var homedAt [minTableSlots][]uint64
	for k := uint64(0); len(homedAt[0]) < 6 || len(homedAt[minTableSlots-1]) < 6; k++ {
		h := (k * fibonacci) >> (64 - bits.TrailingZeros(minTableSlots))
		homedAt[h] = append(homedAt[h], k)
	}
	keys := append(homedAt[0][:6:6], homedAt[minTableSlots-1][:6]...)
	for k := uint64(1<<32 - 4); k < 1<<32+4; k++ {
		keys = append(keys, k)
	}
	return append(keys, 0, 1, 2, 3, 1<<63, 1<<64-1, 0x9E3779B97F4A7C15, 42, 43, 44)
}()

func saveTable(t *Table[uint32]) []byte {
	e := NewEncoder()
	c := Saving(e)
	WalkTable(c, t, 1<<20, func(k *uint64, v *uint32) { c.U64(k); c.U32(v) })
	return e.Data()
}

func loadTable(t *Table[uint32], data []byte) error {
	c := Loading(NewDecoder(data))
	WalkTable(c, t, 1<<20, func(k *uint64, v *uint32) { c.U64(k); c.U32(v) })
	return c.Err()
}

func saveMap(m map[uint64]uint32) []byte {
	e := NewEncoder()
	c := Saving(e)
	Map(c, &m, 1<<20, cmp.Less[uint64], func(k *uint64, v *uint32) { c.U64(k); c.U32(v) })
	return e.Data()
}

// runTableScript drives a Table and a plain map with the same operations
// and compares them after every one. script[0] picks the start: the zero
// value, or Reserve of 1..31 entries. Each further byte is one operation
// on tableKeys[op>>3]: put (three times as likely as the rest), get,
// delete (twice), Clear when the byte is 6, and otherwise a codec check.
func runTableScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	var tb Table[uint32]
	reserved := int(script[0] % 32)
	if reserved > 0 {
		tb.Reserve(reserved)
	}
	sized := len(tb.slots)
	model := map[uint64]uint32{}
	deepest := 0
	for step, op := range script[1:] {
		k := tableKeys[int(op>>3)%len(tableKeys)]
		switch op & 7 {
		case 0, 1, 2:
			tb.Put(k, uint32(step))
			model[k] = uint32(step)
		case 3:
			got, ok := tb.Get(k)
			want, in := model[k]
			if ok != in || got != want {
				t.Fatalf("step %d: Get(%#x) = %d, %v; model %d, %v", step, k, got, ok, want, in)
			}
		case 4, 5:
			got, ok := tb.Delete(k)
			want, in := model[k]
			if ok != in || got != want {
				t.Fatalf("step %d: Delete(%#x) = %d, %v; model %d, %v", step, k, got, ok, want, in)
			}
			delete(model, k)
		default:
			if op == 6 {
				length := len(tb.slots)
				tb.Clear()
				clear(model)
				if len(tb.slots) != length {
					t.Fatalf("step %d: Clear resized %d slots to %d", step, length, len(tb.slots))
				}
			} else {
				checkTableCodec(t, step, &tb, model)
			}
		}
		deepest = max(deepest, len(model))
		checkTable(t, step, &tb, model)
	}
	if reserved > 0 && deepest <= reserved && len(tb.slots) != sized {
		t.Fatalf("Reserve(%d) never held more than %d entries but regrew %d slots to %d", reserved, deepest, sized, len(tb.slots))
	}
}

// checkTable compares the table with the model: count, every key of the
// universe, the occupancy bits, the load bound, and that each entry sits
// on its home slot's probe run with no empty slot in between.
func checkTable(t *testing.T, step int, tb *Table[uint32], model map[uint64]uint32) {
	t.Helper()
	if tb.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model %d", step, tb.Len(), len(model))
	}
	for _, k := range tableKeys {
		got, ok := tb.Get(k)
		if want, in := model[k]; ok != in || got != want {
			t.Fatalf("step %d: Get(%#x) = %d, %v; model %d, %v", step, k, got, ok, want, in)
		}
	}
	set := 0
	for _, w := range tb.full {
		set += bits.OnesCount64(w)
	}
	if set != len(model) || len(model)*4 > len(tb.slots)*3 {
		t.Fatalf("step %d: %d bits set in %d slots, model %d", step, set, len(tb.slots), len(model))
	}
	mask := len(tb.slots) - 1
	for i := range tb.slots {
		if !tb.used(i) {
			if tb.slots[i] != (tableSlot[uint32]{}) {
				t.Fatalf("step %d: empty slot %d holds %v", step, i, tb.slots[i])
			}
			continue
		}
		for j := tb.home(tb.slots[i].key); j != i; j = (j + 1) & mask {
			if !tb.used(j) {
				t.Fatalf("step %d: key %#x at slot %d is cut off from its home by empty slot %d", step, tb.slots[i].key, i, j)
			}
		}
	}
}

// checkTableCodec: the table's bytes are the bytes Map writes for the
// same contents, and loading them — into an empty table or over this
// one's own contents — saves the same bytes again.
func checkTableCodec(t *testing.T, step int, tb *Table[uint32], model map[uint64]uint32) {
	t.Helper()
	want := saveMap(model)
	got := saveTable(tb)
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: WalkTable wrote %x, Map writes %x", step, got, want)
	}
	var fresh Table[uint32]
	for _, into := range []*Table[uint32]{&fresh, tb} {
		if err := loadTable(into, got); err != nil {
			t.Fatalf("step %d: load: %v", step, err)
		}
		if again := saveTable(into); !bytes.Equal(again, want) {
			t.Fatalf("step %d: load then save wrote %x, want %x", step, again, want)
		}
		checkTable(t, step, into, model)
	}
}

// tableScripts are the cases the fuzz target starts from, each also a
// unit test. Operation bytes are key<<3 | op, with tableKeys as laid
// out: 0-5 share slot 0's home, 6-11 slot 7's, 12-19 straddle 2^32.
var tableScripts = [][]byte{
	{0, 0 << 3, 1 << 3, 2 << 3, 3 << 3, 7, 1<<3 | 4, 0<<3 | 3, 1<<3 | 3, 2<<3 | 3, 7},         // a collision chain, delete inside it
	{0, 6 << 3, 7 << 3, 8 << 3, 9 << 3, 7, 6<<3 | 4, 7<<3 | 4, 8<<3 | 3, 9<<3 | 3, 7},         // runs wrapping the last slot
	{0, 6 << 3, 0 << 3, 7 << 3, 1 << 3, 8 << 3, 6<<3 | 4, 0<<3 | 3, 1<<3 | 3, 7<<3 | 5, 7},    // wrapped and home runs merged
	{0, 12 << 3, 13 << 3, 14 << 3, 15 << 3, 16 << 3, 17 << 3, 18 << 3, 19 << 3, 7, 15<<3 | 4}, // TxnIDs across 2^32, growth
	{6, 0 << 3, 1 << 3, 2 << 3, 3 << 3, 4 << 3, 5 << 3, 7, 6, 7, 0 << 3, 7},                   // Reserve(6) holds, Clear keeps it
	{0, 20 << 3, 21 << 3, 22 << 3, 23 << 3, 24 << 3, 25 << 3, 26 << 3, 7, 21<<3 | 4, 7},       // zero, one, 2^63, 2^64-1
	{0, 7, 0<<3 | 3, 0<<3 | 4, 6, 7},                           // empty table ops
	{1, 0 << 3, 0 << 3, 0 << 3, 0<<3 | 4, 0<<3 | 4, 0 << 3, 7}, // overwrite, delete twice
}

func TestTable(t *testing.T) {
	for _, s := range tableScripts {
		runTableScript(t, s)
	}
	// Every key, then every other one deleted, then the rest: two
	// growths and long runs of backward shifts.
	all := []byte{0}
	for i := range tableKeys {
		all = append(all, byte(i<<3))
	}
	all = append(all, 7)
	for i := 0; i < len(tableKeys); i += 2 {
		all = append(all, byte(i<<3|4))
	}
	all = append(all, 7)
	for i := 1; i < len(tableKeys); i += 2 {
		all = append(all, byte(i<<3|5))
	}
	runTableScript(t, append(all, 7))
}

// TestWalkTableRefusesDisorder: keys out of order, repeated, or past max
// fail the load as a corrupt snapshot.
func TestWalkTableRefusesDisorder(t *testing.T) {
	e := NewEncoder()
	for _, tc := range []struct {
		name string
		n    uint64
		keys []uint64
	}{
		{"descending", 2, []uint64{5, 3}},
		{"repeated", 2, []uint64{5, 5}},
		{"over max", 1 << 21, nil},
	} {
		e.buf = e.buf[:0]
		e.PutUvarint(tc.n)
		for _, k := range tc.keys {
			e.PutUvarint(k)
			e.PutUvarint(1)
		}
		var tb Table[uint32]
		if err := loadTable(&tb, e.Data()); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: load error %v, want ErrCorruptSnapshot", tc.name, err)
		}
	}
}

// TestTableWarmAllocs: once a table has reached its working size, its
// operations, a save into a large enough buffer and a load allocate
// nothing.
func TestTableWarmAllocs(t *testing.T) {
	var tb Table[*uint32]
	tb.Reserve(32)
	v := new(uint32)
	e := NewEncoderOn(make([]byte, 0, 4096))
	var data []byte
	walk := func(c *Codec) func(k *uint64, p **uint32) {
		return func(k *uint64, p **uint32) {
			c.U64(k)
			if *p == nil {
				*p = v
			}
		}
	}
	save, load := Saving(e), Loading(NewDecoder(nil))
	saveWalk, loadWalk := walk(save), walk(load)
	cycle := func() {
		for k := uint64(1<<32 - 16); k < 1<<32+16; k++ {
			tb.Put(k, v)
		}
		for k := uint64(1<<32 - 16); k < 1<<32; k++ {
			if p, _ := tb.Get(k); p != v {
				t.Fatal("lost an entry")
			}
			tb.Delete(k)
		}
		e.buf = e.buf[:0]
		WalkTable(save, &tb, 64, saveWalk)
		data = e.Data()
		*load.d = Decoder{buf: data}
		WalkTable(load, &tb, 64, loadWalk)
		if load.Err() != nil || tb.Len() != 16 {
			t.Fatalf("load: %v, %d entries", load.Err(), tb.Len())
		}
		tb.Clear()
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a warmed table allocates %v objects a cycle", n)
	}
}

// FuzzTable holds the table to the plain-map model under arbitrary
// operation scripts (see runTableScript).
func FuzzTable(f *testing.F) {
	for _, s := range tableScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runTableScript(t, script)
	})
}
