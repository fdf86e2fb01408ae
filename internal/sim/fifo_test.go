package sim

import (
	"bytes"
	"errors"
	"testing"
)

// The FIFO tests walk uint32 entries on both sides of the comparison: the
// queue through WalkFIFO, the model through Slice.
func saveFIFO(q *FIFO[uint32], max int) ([]byte, error) {
	e := NewEncoder()
	c := Saving(e)
	WalkFIFO(c, q, max, func(v *uint32) { c.U32(v) })
	return e.Data(), c.Err()
}

func loadFIFO(q *FIFO[uint32], data []byte, max int) error {
	c := Loading(NewDecoder(data))
	WalkFIFO(c, q, max, func(v *uint32) { c.U32(v) })
	return c.Err()
}

func saveSlice(s []uint32) []byte {
	e := NewEncoder()
	c := Saving(e)
	Slice(c, &s, 1<<20)
	for i := range s {
		c.U32(&s[i])
	}
	return e.Data()
}

// runFIFOScript drives a FIFO and a plain slice with the same operations
// and compares them after every one. script[0] picks the start: 0 the
// zero value, otherwise NewFIFO of 1..8 entries. Each further byte is one
// operation (push twice as likely as each pop; Clear and the codec check
// rarer), so arbitrary bytes wrap the head, grow the storage from empty
// and from full, and save at every head offset.
func runFIFOScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	var q FIFO[uint32]
	built := int(script[0] % 9)
	if built > 0 {
		q = NewFIFO[uint32](built)
		if q.Cap() != built || q.Len() != 0 {
			t.Fatalf("NewFIFO(%d): cap %d len %d", built, q.Cap(), q.Len())
		}
	}
	var model []uint32
	next, deepest := uint32(1), 0 // queued values are never zero
	for step, op := range script[1:] {
		switch {
		case op%8 <= 2:
			q.Push(next)
			model = append(model, next)
			next++
		case op%8 == 3 && len(model) > 0:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, model %d", step, got, model[0])
			}
			model = model[1:]
		case op%8 == 4 && len(model) > 0:
			if got := q.PopTail(); got != model[len(model)-1] {
				t.Fatalf("step %d: PopTail = %d, model %d", step, got, model[len(model)-1])
			}
			model = model[:len(model)-1]
		case op == 5:
			q.Clear()
			model = model[:0]
		case op%8 == 6:
			checkFIFOCodec(t, step, &q, model)
		}
		deepest = max(deepest, len(model))
		if q.Len() != len(model) || q.Cap() < q.Len() {
			t.Fatalf("step %d: len %d cap %d, model len %d", step, q.Len(), q.Cap(), len(model))
		}
		for i, want := range model {
			if got := q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, model %d", step, i, got, want)
			}
		}
		if len(model) > 0 && q.Peek() != model[0] {
			t.Fatalf("step %d: Peek = %d, model %d", step, q.Peek(), model[0])
		}
		live := 0
		for _, v := range q.buf {
			if v != 0 {
				live++
			}
		}
		if live != len(model) {
			t.Fatalf("step %d: %d non-zero entries in storage, %d queued: a vacated entry was not zeroed", step, live, len(model))
		}
	}
	if built > 0 && deepest <= built && q.Cap() != built {
		t.Fatalf("NewFIFO(%d) never held more than %d entries but reallocated to %d", built, deepest, q.Cap())
	}
}

// checkFIFOCodec: the queue's bytes are the bytes Slice writes for the
// same contents wherever the head sits, and loading them — into an empty
// queue or over this one's own contents — saves the same bytes again.
func checkFIFOCodec(t *testing.T, step int, q *FIFO[uint32], model []uint32) {
	t.Helper()
	want := saveSlice(model)
	got, err := saveFIFO(q, 1<<20)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("step %d: WalkFIFO wrote %x (err %v) at head %d, Slice writes %x", step, got, err, q.head, want)
	}
	var fresh FIFO[uint32]
	for _, into := range []*FIFO[uint32]{&fresh, q} {
		if err := loadFIFO(into, got, 1<<20); err != nil {
			t.Fatalf("step %d: load: %v", step, err)
		}
		if into.head != 0 {
			t.Fatalf("step %d: loaded at head %d", step, into.head)
		}
		if again, _ := saveFIFO(into, 1<<20); !bytes.Equal(again, want) {
			t.Fatalf("step %d: load then save wrote %x, want %x", step, again, want)
		}
	}
}

// fifoScripts are the cases the fuzz target starts from, each also a unit
// test: wrap-around at a fixed capacity, growth from the zero value with
// the head mid-buffer, growth from a full NewFIFO, PopTail down to empty
// and up again, Clear, and a codec check at several head offsets.
var fifoScripts = [][]byte{
	{4, 0, 0, 0, 0, 3, 3, 0, 0, 6, 3, 3, 3, 3, 6},          // fill 4, wrap, drain
	{0, 0, 0, 0, 3, 3, 0, 0, 0, 6, 0, 0, 0, 0, 0, 6, 3, 6}, // zero value: grow at head 2
	{2, 0, 0, 3, 0, 0, 6, 0, 0, 0, 0, 0, 6},                // full NewFIFO(2) grows, head 1
	{3, 0, 0, 0, 4, 4, 4, 6, 0, 3, 0, 0, 4, 6},             // PopTail to empty and on
	{8, 0, 0, 0, 0, 0, 3, 3, 3, 5, 6, 0, 0, 0, 0, 0, 0, 6}, // Clear resets the head
	{1, 0, 3, 0, 3, 0, 6, 3, 6},                            // capacity 1: every push wraps
	{5, 0, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 6}, // depth respected: no realloc
	{0, 6, 3, 4, 5, 6},                                     // pops and codec on empty
	{7, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 0, 0, 0, 4, 6, 5, 6}, // everything
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6}, // zero value through 4, 8, 16
}

func TestFIFO(t *testing.T) {
	for _, s := range fifoScripts {
		runFIFOScript(t, s)
	}
}

// TestWalkFIFORefusesBadLengths: a claimed length over max, or over the
// bytes left, fails the load as a corrupt snapshot and allocates nothing.
func TestWalkFIFORefusesBadLengths(t *testing.T) {
	q := NewFIFO[uint32](4)
	for v := uint32(1); v <= 3; v++ {
		q.Push(v)
	}
	data, err := saveFIFO(&q, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The length is one varint byte, then one byte per entry.
	if want := []byte{3, 1, 2, 3}; !bytes.Equal(data, want) {
		t.Fatalf("saved %x, want %x", data, want)
	}
	huge := append([]byte{0xff, 0xff, 0xff, 0x7f}, data[1:]...)
	for name, tc := range map[string]struct {
		data []byte
		max  int
	}{
		"over max":        {data, 2},
		"over bytes left": {data[:3], 4},
		"absurd":          {huge, 1 << 30},
	} {
		var into FIFO[uint32]
		if err := loadFIFO(&into, tc.data, tc.max); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: load error %v, want ErrCorruptSnapshot", name, err)
		}
		if into.Cap() != 0 || into.Len() != 0 {
			t.Errorf("%s: refused load left cap %d len %d", name, into.Cap(), into.Len())
		}
	}
}

// FuzzFIFO holds the queue to the plain-slice model under arbitrary
// operation scripts (see runFIFOScript).
func FuzzFIFO(f *testing.F) {
	for _, s := range fifoScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runFIFOScript(t, script)
	})
}
