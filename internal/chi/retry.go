package chi

import (
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// RetryConfig enables CHI-level transaction timeout and retry: when a
// fault drops a request or response flit, the requester re-issues the
// transaction after TimeoutCycles instead of waiting forever. The zero
// value disables the mechanism entirely — fault-free runs behave (and
// cost) exactly as before.
type RetryConfig struct {
	// TimeoutCycles is how long a transaction may stay open before its
	// first re-issue; 0 disables timeout/retry.
	TimeoutCycles int
	// MaxRetries bounds re-issues per transaction; once exhausted the
	// transaction is aborted (surfaced in AbortedTxns, the model of a
	// machine-check in real silicon). 0 means abort on first timeout.
	MaxRetries int
}

// Enabled reports whether the configuration arms the mechanism.
func (c RetryConfig) Enabled() bool { return c.TimeoutCycles > 0 }

// armedTxn tracks one open transaction's deadline.
type armedTxn struct {
	id       uint32
	deadline sim.Cycle
	attempts int
	dead     bool // disarmed; compacted out on the next Expired scan
}

// Retrier watches open transactions for timeouts with deterministic,
// exponential-ish backoff: attempt k re-arms with TimeoutCycles << k, so
// a transiently dead path gets geometrically more time before the abort
// verdict. All methods are nil-receiver safe; NewRetrier returns nil for
// a disabled config, making the disabled path zero-cost at call sites.
type Retrier struct {
	cfg     RetryConfig
	watched sim.Table[*armedTxn] // the live entries of order, by TxnID
	order   []*armedTxn          // arm order; expiry scans it linearly so same-cycle timeouts fire deterministically

	RetriedTxns uint64 // re-issues granted
	AbortedTxns uint64 // transactions that exhausted their budget
}

// NewRetrier builds a retrier, or nil when the config disables retry.
func NewRetrier(cfg RetryConfig) *Retrier {
	if !cfg.Enabled() {
		return nil
	}
	return &Retrier{cfg: cfg}
}

// Enabled reports whether this retrier does anything.
func (r *Retrier) Enabled() bool { return r != nil }

// Armed returns the number of transactions currently under watch.
func (r *Retrier) Armed() int {
	if r == nil {
		return 0
	}
	return r.watched.Len()
}

// Arm starts (or restarts) the timeout clock for a transaction.
func (r *Retrier) Arm(id uint32, now sim.Cycle) {
	if r == nil {
		return
	}
	if t, ok := r.watched.Get(uint64(id)); ok {
		t.deadline = now + sim.Cycle(r.cfg.TimeoutCycles)
		return
	}
	t := &armedTxn{id: id, deadline: now + sim.Cycle(r.cfg.TimeoutCycles)}
	r.watched.Put(uint64(id), t)
	r.order = append(r.order, t)
}

// Disarm stops watching a transaction (it completed or aborted) and
// reports whether it was ever re-issued.
func (r *Retrier) Disarm(id uint32) (resent bool) {
	if r == nil {
		return false
	}
	t, ok := r.watched.Delete(uint64(id))
	if ok {
		t.dead = true
	}
	return ok && t.attempts > 0
}

// RegisterMetrics exposes the retrier's timeout/retry counters on a
// metrics registry under "chi.<name>.*". It is nil-receiver safe: a
// requester with retry disabled registers constant zeros, so dashboards
// keep a uniform schema whether or not the mechanism is armed.
func (r *Retrier) RegisterMetrics(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	reg.Counter("chi."+name+".retried", func() uint64 {
		if r == nil {
			return 0
		}
		return r.RetriedTxns
	})
	reg.Counter("chi."+name+".aborted", func() uint64 {
		if r == nil {
			return 0
		}
		return r.AbortedTxns
	})
	reg.Gauge("chi."+name+".armed", func() float64 { return float64(r.Armed()) })
}

// NextDeadline returns the earliest cycle at which Expired would report a
// transaction — the first live deadline — or noc.Never with nothing under
// watch. Backoff re-arms break arm order, so it scans; callers ask only
// once everything cheaper says they could sleep.
func (r *Retrier) NextDeadline() sim.Cycle {
	next := noc.Never
	if r == nil {
		return next
	}
	for _, t := range r.order {
		if !t.dead && t.deadline < next {
			next = t.deadline
		}
	}
	return next
}

// backoffShift caps the exponential backoff exponent so deadlines never
// overflow even with absurd retry budgets.
const backoffShift = 16

// Expired returns the transactions whose deadline passed by now, in arm
// order: retry holds those granted a re-issue (re-armed with a doubled
// timeout), abort those that exhausted MaxRetries (disarmed). The caller
// re-sends the former and closes the latter.
func (r *Retrier) Expired(now sim.Cycle) (retry, abort []uint32) {
	if r == nil || len(r.order) == 0 {
		return nil, nil
	}
	kept := r.order[:0]
	for _, t := range r.order {
		if t.dead {
			continue // lazy compaction of disarmed entries
		}
		if t.deadline > now {
			kept = append(kept, t)
			continue
		}
		if t.attempts >= r.cfg.MaxRetries {
			t.dead = true
			r.watched.Delete(uint64(t.id))
			r.AbortedTxns++
			abort = append(abort, t.id)
			continue
		}
		t.attempts++
		shift := uint(t.attempts)
		if shift > backoffShift {
			shift = backoffShift
		}
		t.deadline = now + (sim.Cycle(r.cfg.TimeoutCycles) << shift)
		r.RetriedTxns++
		retry = append(retry, t.id)
		kept = append(kept, t)
	}
	// Zero the tail so dropped entries do not pin garbage.
	for i := len(kept); i < len(r.order); i++ {
		r.order[i] = nil
	}
	r.order = kept
	return retry, abort
}
