package sim

// FIFO is the simulator's one queue: a circular buffer with a head
// index, so a push or a pop writes exactly one entry whatever the depth
// (shifting a slice of pointers costs a bulk GC write barrier per pop).
// The ring itself is bufferless, so every buffer of the fabric — the
// interface lanes, the bridge and link buffers, the device queues behind
// them — is one of these. The zero value is an empty queue that grows on
// demand; one built by NewFIFO never reallocates as long as its owner
// checks Len against its depth before pushing. A vacated entry is zeroed,
// so a drained queue pins nothing. Cap is the storage held, in entries:
// the term a memory estimate reads.
type FIFO[T any] struct {
	buf  []T // every entry outside the live window is the zero value
	head int // index in buf of the oldest entry
	n    int // live entries
}

// NewFIFO returns an empty queue with room for capacity entries.
func NewFIFO[T any](capacity int) FIFO[T] { return FIFO[T]{buf: make([]T, capacity)} }

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return q.n }

// Cap returns how many entries the queue holds without growing.
func (q *FIFO[T]) Cap() int { return len(q.buf) }

// ref returns the address of the i-th entry in FIFO order (0 = oldest).
func (q *FIFO[T]) ref(i int) *T {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Push appends v at the tail, doubling the storage when it is full.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	*q.ref(q.n) = v
	q.n++
}

// grow doubles a full queue's storage, moving the entries to head 0.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	p := &q.buf[q.head]
	v := *p
	var zero T
	*p = zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// Peek returns the oldest entry without removing it; the queue must not
// be empty.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// PopTail removes and returns the newest entry — a push taken back; the
// queue must not be empty.
func (q *FIFO[T]) PopTail() T {
	q.n--
	p := q.ref(q.n)
	v := *p
	var zero T
	*p = zero
	return v
}

// At returns the i-th entry in FIFO order (0 = oldest); i < Len.
func (q *FIFO[T]) At(i int) T { return *q.ref(i) }

// Clear empties the queue, keeping its storage.
func (q *FIFO[T]) Clear() {
	for q.n > 0 {
		q.Pop()
	}
	q.head = 0
}

// WalkFIFO walks a queue of at most max entries as a varint length and then
// walk(&entry) per entry, oldest first — the bytes Slice and a loop
// over the elements write, wherever the head sits. Loading empties the
// queue and refills it from head 0 with zeroed entries for walk to fill,
// keeping the storage when it is large enough.
func WalkFIFO[T any](c *Codec, q *FIFO[T], max int, walk func(v *T)) {
	n := c.Len(q.n, max)
	if c.d != nil {
		q.Clear()
		if n > len(q.buf) {
			q.buf = make([]T, n)
		}
		q.n = n
	}
	for i := 0; i < n; i++ {
		walk(q.ref(i))
	}
}
