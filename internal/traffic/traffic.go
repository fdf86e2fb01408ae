// Package traffic provides the workload generators that drive every
// experiment: sequential address streams, CHI-level closed- and
// open-loop requesters, and read/write mixes. The
// same Requester models a Server-CPU core doing DDR accesses (Figures 10
// and 11), an AI core talking to interleaved L2 slices (Table 7), and a
// DMA engine moving lines between L2 and HBM.
package traffic

import (
	"fmt"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/stats"
	"chipletnoc/internal/trace"
)

// AddressStream produces the next line address of a workload.
type AddressStream interface {
	Next() uint64
}

// SeqStream walks addresses sequentially — the streaming patterns of
// LMBench kernels and AI tensors.
type SeqStream struct {
	next   uint64
	stride uint64
	wrap   uint64 // wrap back to base after this many bytes (0 = never)
	base   uint64
}

// NewSeqStream starts at base with the given stride; wrap (if non-zero)
// bounds the footprint.
func NewSeqStream(base, stride, wrap uint64) *SeqStream {
	if stride == 0 {
		stride = chi.LineSize
	}
	return &SeqStream{next: base, stride: stride, wrap: wrap, base: base}
}

// Next implements AddressStream.
func (s *SeqStream) Next() uint64 {
	a := s.next
	s.next += s.stride
	if s.wrap != 0 && s.next >= s.base+s.wrap {
		s.next = s.base
	}
	return a
}

// RequesterConfig shapes one generator.
type RequesterConfig struct {
	// Outstanding bounds in-flight transactions (the CHI table size).
	Outstanding int
	// Rate is the per-cycle issue probability; 1.0 is a closed loop
	// limited only by Outstanding, lower values model background noise
	// intensity (the Figure 11 sweep knob).
	Rate float64
	// ReadFraction of requests are reads; the rest are writes.
	ReadFraction float64
	// Stream supplies addresses.
	Stream AddressStream
	// TargetOf maps an address to the serving node (a DDR controller, an
	// interleaved L2 slice, a home directory...).
	TargetOf func(addr uint64) noc.NodeID
	// WriteTargetOf, when set, routes writes to a different server than
	// reads — how a DMA engine reads HBM and writes L2 slices. Defaults
	// to TargetOf.
	WriteTargetOf func(addr uint64) noc.NodeID
	// MaxRequests stops the generator after this many issues (0 = run
	// forever).
	MaxRequests uint64
	// IssuePerCycle is how many requests may start per cycle (defaults
	// to 1). AI cores have line-wide load/store pipes and need several.
	IssuePerCycle int
	// LineBytes is the transfer granule (defaults to chi.LineSize). The
	// AI die moves whole L2 lines, which are larger than 64 B.
	LineBytes int
	// WriteOutstanding, when positive, gives writes their own in-flight
	// budget (CHI's read and write machinery are independent): reads are
	// capped by Outstanding, writes by WriteOutstanding, and the
	// transaction table holds both. Zero shares one pool.
	WriteOutstanding int
	// Retry arms CHI-level timeout/retry so transactions whose flits a
	// fault dropped are re-issued instead of wedging the table. The zero
	// value disables it (healthy runs stay bit-identical).
	Retry chi.RetryConfig
}

// Requester is a CHI-level traffic generator attached to the NoC.
type Requester struct {
	noc.Port
	cfg RequesterConfig
	rng *sim.RNG

	tracker *chi.Tracker
	// per-class in-flight counts when WriteOutstanding splits the pool
	readsInFlight, writesInFlight int
	// sendq holds beat flits awaiting injection (multi-beat writes).
	sendq sim.FIFO[*noc.Flit]
	// retrier is the CHI timeout/retry watcher (nil when disabled).
	// Per-transaction state (issue cycle, read beats left, retry
	// destination) lives on the tracked chi.Message itself.
	retrier *chi.Retrier

	// Latency collects per-transaction round trips.
	Latency stats.Histogram

	Issued, Completed     uint64
	ReadsDone, WritesDone uint64
	BytesMoved            uint64 // payload bytes in both directions
	Aborted               uint64 // transactions abandoned after the retry budget
}

// NewRequester attaches a generator to a station.
func NewRequester(net *noc.Network, name string, cfg RequesterConfig, rng *sim.RNG, st *noc.CrossStation) *Requester {
	if cfg.Outstanding <= 0 {
		panic("traffic: Outstanding must be positive")
	}
	if cfg.Stream == nil || cfg.TargetOf == nil {
		panic("traffic: Stream and TargetOf are required")
	}
	tableSize := cfg.Outstanding + cfg.WriteOutstanding
	r := &Requester{
		cfg: cfg, rng: rng,
		tracker: chi.NewTracker(tableSize),
		retrier: chi.NewRetrier(cfg.Retry),
	}
	r.Port = net.Plug(r, name, st)
	return r
}

// Done reports whether a bounded generator has finished all its work.
func (r *Requester) Done() bool {
	return r.cfg.MaxRequests != 0 && r.Issued >= r.cfg.MaxRequests && r.tracker.Outstanding() == 0
}

// RegisterMetrics exposes the requester's issue/completion counters,
// latency summaries, transaction-table occupancy and CHI retry counters
// on a metrics registry under "traffic.<name>.*" and "chi.<name>.*".
// Latency gauges are read only at snapshot time (sorting the histogram
// there does not touch simulated state), so instrumentation never
// changes behaviour.
func (r *Requester) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "traffic." + r.Name()
	reg.Counter(p+".issued", func() uint64 { return r.Issued })
	reg.Counter(p+".completed", func() uint64 { return r.Completed })
	reg.Counter(p+".bytes_moved", func() uint64 { return r.BytesMoved })
	reg.Counter(p+".aborted", func() uint64 { return r.Aborted })
	reg.Gauge(p+".latency_mean", func() float64 { return r.Latency.Mean() })
	reg.Gauge(p+".latency_p50", func() float64 { return r.Latency.Percentile(50) })
	reg.Gauge(p+".latency_p99", func() float64 { return r.Latency.Percentile(99) })
	reg.Series(p+".outstanding", func() float64 { return float64(r.tracker.Outstanding()) })
	r.retrier.RegisterMetrics(reg, r.Name())
}

// RetryStats returns the CHI-level retry/abort counters (zero when
// retry is disabled).
func (r *Requester) RetryStats() (retried, aborted uint64) {
	if r.retrier == nil {
		return 0, 0
	}
	return r.retrier.RetriedTxns, r.retrier.AbortedTxns
}

// complete records the statistics of a transaction Settle retired.
func (r *Requester) complete(req *chi.Message, now sim.Cycle) {
	r.Latency.Add(float64(uint64(now) - req.IssuedAt))
	r.Completed++
	r.BytesMoved += uint64(req.Bytes())
	if req.IsWrite() {
		r.WritesDone++
		r.writesInFlight--
	} else {
		r.ReadsDone++
		r.readsInFlight--
	}
}

// abort abandons a transaction whose retry budget is exhausted: the
// table slot is reclaimed so traffic continues (a real system would
// raise a machine-check here). No latency sample is recorded — the
// transaction never completed.
func (r *Requester) abort(req *chi.Message) {
	r.tracker.Complete(req.TxnID)
	r.Aborted++
	if req.IsWrite() {
		r.writesInFlight--
	} else {
		r.readsInFlight--
	}
}

// runRetries re-issues timed-out transactions and closes the ones whose
// budget is gone.
func (r *Requester) runRetries(now sim.Cycle) {
	retry, abort := r.retrier.Expired(now)
	for _, id := range retry {
		req := r.tracker.Lookup(id)
		if req == nil {
			continue
		}
		if !req.IsWrite() {
			// The whole data burst will be re-sent; stale beats from the
			// first attempt just complete the transaction sooner.
			req.BeatsLeft = int32(req.Beats())
		}
		r.sendq.Push(req.NewFlit(r.Net, r.Node(), req.RetryDst))
		if r.Net.Tracer != nil {
			r.Net.Trace(trace.Retry, 0, r.Name(), fmt.Sprintf("txn %d re-issued", id))
		}
	}
	for _, id := range abort {
		req := r.tracker.Lookup(id)
		if req == nil {
			continue
		}
		r.abort(req)
		if r.Net.Tracer != nil {
			r.Net.Trace(trace.Retry, 0, r.Name(), fmt.Sprintf("txn %d aborted", id))
		}
	}
}

// Tick implements noc.Device.
func (r *Requester) Tick(now sim.Cycle) {
	// Completions first so their table slots can be reused this cycle.
	// A read completes when the last data beat of its burst arrives.
	r.tracker.Settle(r.Net, r.Iface, r.retrier, &r.sendq, func(req *chi.Message) { r.complete(req, now) })
	// Timeouts next: re-issues join the send queue ahead of new work.
	if r.retrier != nil {
		r.runRetries(now)
	}
	// Drain queued beats before starting new transactions.
	r.Iface.SendAll(&r.sendq)
	// Issue.
	issues := r.cfg.IssuePerCycle
	if issues <= 0 {
		issues = 1
	}
	for i := 0; i < issues; i++ {
		if r.cfg.MaxRequests != 0 && r.Issued >= r.cfg.MaxRequests {
			return
		}
		if r.sendq.Len() > 0 {
			return // beat backlog first; keeps the backlog bounded
		}
		if r.cfg.Rate < 1 && !r.rng.Bernoulli(r.cfg.Rate) {
			continue
		}
		if r.tracker.Full() {
			return
		}
		op := chi.ReadNoSnp
		if !r.rng.Bernoulli(r.cfg.ReadFraction) {
			op = chi.WriteNoSnp
		}
		if r.cfg.WriteOutstanding > 0 {
			// Independent read/write machinery: skip the class whose
			// budget is exhausted.
			if op == chi.WriteNoSnp && r.writesInFlight >= r.cfg.WriteOutstanding {
				continue
			}
			if op == chi.ReadNoSnp && r.readsInFlight >= r.cfg.Outstanding {
				continue
			}
		}
		addr := r.cfg.Stream.Next()
		targetOf := r.cfg.TargetOf
		if op == chi.WriteNoSnp && r.cfg.WriteTargetOf != nil {
			targetOf = r.cfg.WriteTargetOf
		}
		dst := targetOf(addr)
		if dst == r.Node() {
			continue // interleaving landed on ourselves; skip
		}
		m := chi.NewMsg(r.Net, chi.Message{Op: op, Addr: addr, Requester: r.Node(), Size: int32(r.cfg.LineBytes)})
		if !r.tracker.Open(m) {
			return
		}
		// Both classes start with a header request; reads complete on the
		// last returned data beat, writes continue with DBIDResp → data
		// burst → Comp (the full CHI write flow).
		r.sendq.Push(m.NewFlit(r.Net, r.Node(), dst))
		if m.IsWrite() {
			r.writesInFlight++
		} else {
			m.BeatsLeft = int32(m.Beats())
			r.readsInFlight++
		}
		m.IssuedAt = uint64(now)
		if r.retrier.Enabled() {
			m.RetryDst = dst
			r.retrier.Arm(m.TxnID, now)
		}
		r.Issued++
		r.Iface.SendAll(&r.sendq)
	}
}

// IdleUntil implements noc.IdleUntiler. The requester is idle when Tick
// would touch nothing: no arrival to take, and either a beat backlog behind
// a full inject queue — Send refuses before it looks at the flit, and the
// issue loop returns on the backlog — or no backlog and an issue loop that
// returns at its first test: the request budget is spent, or the generator
// is a closed loop (Rate >= 1) on a full transaction table. Below rate 1
// the Bernoulli draw comes before the table test, so every tick advances
// the RNG and such a requester never sleeps on a full table. It sleeps
// until the earliest retry deadline; a completion arriving sooner, or the
// station taking a flit off the full inject queue, wakes it through its
// interface.
func (r *Requester) IdleUntil(now sim.Cycle) sim.Cycle {
	if r.Iface.EjectLen() > 0 {
		return now
	}
	if r.sendq.Len() > 0 {
		if r.Iface.InjectSpace() > 0 {
			return now
		}
	} else if spent := r.cfg.MaxRequests != 0 && r.Issued >= r.cfg.MaxRequests; !spent && !(r.cfg.Rate >= 1 && r.tracker.Full()) {
		return now
	}
	if d := r.retrier.NextDeadline(); d > now {
		return d
	}
	return now
}

// FixedTarget returns a TargetOf that always answers node.
func FixedTarget(node noc.NodeID) func(uint64) noc.NodeID {
	return func(uint64) noc.NodeID { return node }
}

// InterleavedTargets returns a TargetOf spreading 64 B lines across
// nodes — the AI die's interleaved L2 association.
func InterleavedTargets(nodes []noc.NodeID) func(uint64) noc.NodeID {
	return InterleavedTargetsBy(nodes, chi.LineSize)
}

// InterleavedTargetsBy interleaves at an explicit granule; the granule
// must match the requester's line size or sequential streams will skip
// targets.
func InterleavedTargetsBy(nodes []noc.NodeID, granuleBytes int) func(uint64) noc.NodeID {
	if len(nodes) == 0 {
		panic("traffic: no targets")
	}
	if granuleBytes <= 0 {
		panic("traffic: non-positive interleave granule")
	}
	return func(addr uint64) noc.NodeID {
		return nodes[(addr/uint64(granuleBytes))%uint64(len(nodes))]
	}
}
