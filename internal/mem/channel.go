package mem

import "chipletnoc/internal/sim"

// Channel is the one model of a memory channel's bandwidth and timing,
// under both mem.Controller and workloads.MemSystem. Requests wait in a
// FIFO for a grant from a token bucket over the channel's bytes per
// cycle, then spend one constant latency in service, so the in-service
// pipeline is in ready order. The caller pushes requests, steps the
// channel each cycle it runs and pops completions.
type Channel[T interface{ Bytes() int }] struct {
	rate    float64   // bytes a cycle refills
	depth   int       // the bucket holds at most depth cycles of refill
	latency sim.Cycle // grant to completion

	queue  sim.FIFO[T]        // accepted, waiting for a bandwidth grant
	inSvc  sim.FIFO[timed[T]] // granted, waiting for latency
	tokens float64
	// filled is the first cycle whose refill tokens does not include yet:
	// a caller may skip Steps while the queue is empty, and the next Step
	// adds the refills of the cycles it skipped (see refilled). Derived
	// from the clock, never serialized.
	filled sim.Cycle
}

// timed is a granted request and the cycle it completes.
type timed[T any] struct {
	v     T
	ready sim.Cycle
}

// NewChannel returns an empty channel refilling rate bytes a cycle, its
// bucket capped at depth cycles of refill, serving each granted request
// in latency cycles.
func NewChannel[T interface{ Bytes() int }](rate float64, depth int, latency sim.Cycle) Channel[T] {
	return Channel[T]{rate: rate, depth: depth, latency: latency}
}

// Push queues a request for a bandwidth grant.
func (ch *Channel[T]) Push(v T) { ch.queue.Push(v) }

// Step runs cycle now: the refills of the cycles skipped since the last
// Step, this cycle's refill, the clamp, then grants in FIFO order while
// the head request's bytes are in the bucket. The cap never sits below
// the head request's size, or a large transfer through a narrow channel
// would starve forever.
func (ch *Channel[T]) Step(now sim.Cycle) {
	ch.tokens, ch.filled = ch.refilled(now), now+1
	top := ch.restingCap()
	if ch.queue.Len() > 0 {
		top = max(top, float64(ch.queue.Peek().Bytes()))
	}
	ch.tokens = min(ch.tokens+ch.rate, top)
	for ch.queue.Len() > 0 {
		size := float64(ch.queue.Peek().Bytes())
		if ch.tokens < size {
			break
		}
		ch.tokens -= size
		ch.inSvc.Push(timed[T]{v: ch.queue.Pop(), ready: now + ch.latency})
	}
}

// Done returns the oldest request in service if it has completed by now;
// it stays in the channel until Pop.
func (ch *Channel[T]) Done(now sim.Cycle) (v T, ok bool) {
	if ch.inSvc.Len() == 0 || ch.inSvc.Peek().ready > now {
		return v, false
	}
	return ch.inSvc.Peek().v, true
}

// Pop removes the oldest request in service.
func (ch *Channel[T]) Pop() { ch.inSvc.Pop() }

// restingCap is the bucket's cap while no request waits: rate for every
// cycle of depth.
func (ch *Channel[T]) restingCap() float64 {
	return ch.rate * float64(ch.depth)
}

// refilled returns the bucket once the refills of every cycle before end
// are in. Steps are skipped only with the queue empty, so each refill
// missed is one clamped addition at the resting cap, replayed in order —
// n additions of a rate round differently from one n·rate — and the
// replay stops once the cap is reached, after which a refill changes
// nothing. Step settles through the cycle before its own, a checkpoint
// through the last cycle run.
func (ch *Channel[T]) refilled(end sim.Cycle) float64 {
	t, full := ch.tokens, ch.restingCap()
	for at := ch.filled; at < end && t < full; at++ {
		t = min(t+ch.rate, full)
	}
	return t
}

// walkBucket walks the bucket settled through now, as a channel stepped
// every cycle holds it; a save leaves the live bucket alone.
func (ch *Channel[T]) walkBucket(k *sim.Codec, now sim.Cycle) {
	t := ch.refilled(now)
	k.F64(&t)
	if k.Loading() {
		ch.tokens, ch.filled = t, now
	}
}
