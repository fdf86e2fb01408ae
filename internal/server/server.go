package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/durable"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/sim"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states. queued → running → done|failed|canceled, with
// suspended reachable from queued or running when the daemon shuts down
// (a suspended sim job carries a checkpoint and resumes on restart).
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCanceled  JobStatus = "canceled"
	StatusSuspended JobStatus = "suspended"
)

// Job is one queued or executed submission. All mutable fields are
// guarded by the server mutex.
type Job struct {
	ID     string
	Spec   JobSpec
	Status JobStatus
	Error  string
	// Cycle is the simulated cycle reached when the job was suspended.
	Cycle uint64
	// Result is the job's output once it is done: the run's (or the
	// cache's) result with this job's own spec echoed in.
	Result *Result
	// Cached marks a job served from the content-addressed result cache
	// (no simulation ran for it).
	Cached bool
	// Coalesced marks a job that attached to another job's in-flight run
	// instead of starting its own.
	Coalesced bool
	// kind is Spec.Kind resolved at admission or recovery — the one
	// handle through which anything kind-specific is reached.
	kind *jobKind
	// resume is the checkpoint to continue from (reloaded or suspended).
	resume []byte
	// persisted says the state directory may hold this job's record or
	// checkpoint: persistJob or recovery set it, dropPersisted clears it.
	// A job born done from the cache never has either file.
	persisted bool
	// flight is the execution this job is attached to; jobs submitted
	// with identical content addresses share one.
	flight *flight
}

// flight is one execution of one content address. Every job whose spec
// hashes to the flight's key attaches to it; the simulation runs once
// and its result is delivered to all attached members (and the cache).
// Members detach on cancel; only canceling the last member stops the
// run. All fields except cancel are guarded by the server mutex.
type flight struct {
	// key is the content address, or "" when the spec is uncacheable or
	// caching is off — an unkeyed flight never coalesces.
	key  string
	jobs []*Job
	// running flips when a worker picks the flight up; members attaching
	// after that are born running.
	running bool
	// cancel asks the run to stop at its next interrupt poll; set only
	// when the LAST member cancels.
	cancel atomic.Bool
	// resume and cycle carry the checkpoint the run continues from.
	resume []byte
	cycle  uint64
}

// lead returns the member whose spec drives the run (checkpoint cadence
// and all identity fields — which every member shares by construction).
// Callers hold s.mu and have checked the flight is non-empty.
func (fl *flight) lead() *Job { return fl.jobs[0] }

// detach removes job from the flight's member list; it reports whether
// the job was attached.
func (fl *flight) detach(job *Job) bool {
	for i, j := range fl.jobs {
		if j == job {
			fl.jobs = append(fl.jobs[:i], fl.jobs[i+1:]...)
			return true
		}
	}
	return false
}

// Config tunes a Server. Zero values pick the documented defaults.
type Config struct {
	// QueueDepth bounds the jobs waiting to run (default 16); a full
	// queue answers 429 with a Retry-After header.
	QueueDepth int
	// Workers is the worker-pool size (default 2).
	Workers int
	// StateDir, when set, persists job records and rolling checkpoints
	// so a restarted daemon — graceful or crashed — resumes or requeues
	// them. Empty disables persistence.
	StateDir string
	// RetryAfterSeconds is the Retry-After hint on 429 (default 1).
	RetryAfterSeconds int
	// JobDeadline caps one job's wall clock (0 = unlimited). A sim job
	// over the deadline stops at its next interrupt poll; an experiment
	// job (coarse-grained, uninterruptible) is failed after the fact.
	JobDeadline time.Duration
	// Cache, when set, memoizes job admission: a submission whose
	// content address is stored is answered from the cache without
	// running, concurrent identical submissions coalesce into one run,
	// and completed runs populate the store. Nil disables memoization
	// entirely (every submission runs).
	Cache *artifact.Store
}

// Server is the job service. Create with New, expose with Handler, stop
// with Shutdown.
type Server struct {
	cfg      Config
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	flights  map[string]*flight // key -> open (queued or running) flight
	queue    chan *flight
	draining atomic.Bool
	wg       sync.WaitGroup
	recovery RecoveryReport
	// admissions and decoded are the warm path's two lookups (memo.go):
	// request body → admission, and content address → decoded result.
	admissions *memo[[sha256.Size]byte, admission]
	decoded    *memo[string, decodedResult]
	counts     admissionCounters
}

// Submission errors, distinguished so the HTTP layer can map them to
// 429 (full) and 503 (draining).
var (
	ErrQueueFull = errors.New("job queue is full")
	ErrDraining  = errors.New("server is shutting down")
)

// jobRecordSuffix and checkpointSuffix name a job's two state files:
// <id>.job is the JSON record and <id>.ckpt the checkpoint, each in one
// sealed (checksummed) durable envelope.
const (
	jobRecordSuffix  = ".job"
	checkpointSuffix = ".ckpt"
)

// persistedJob is the on-disk record of a submitted, running or
// suspended job; its checkpoint lives next to it in <id>.ckpt.
type persistedJob struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	Cycle uint64  `json:"cycle"`
}

// New builds a server, recovers persisted jobs from cfg.StateDir (they
// re-enter the queue ahead of new submissions; damaged state is
// quarantined, never fatal), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	s := &Server{cfg: cfg, jobs: map[string]*Job{}, flights: map[string]*flight{},
		admissions: newMemo[[sha256.Size]byte, admission](admissionMemoBytes),
		decoded:    newMemo[string, decodedResult](decodedMemoBytes)}

	var reloaded []*Job
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if reloaded, err = s.recoverState(); err != nil {
			return nil, err
		}
	}
	if cfg.Cache != nil {
		st := cfg.Cache.Stats()
		s.note("content cache attached: %d disk entries (%d bytes) reindexed", st.DiskEntries, st.DiskBytes)
	}
	// Recovered jobs with one content address share one flight, exactly
	// as they would had they been submitted to a live daemon.
	flights := s.coalesceRecovered(reloaded)
	// The queue must hold every reloaded flight plus the configured depth
	// of new ones, so a restart never rejects its own suspended work.
	s.queue = make(chan *flight, cfg.QueueDepth+len(flights))
	for _, job := range reloaded {
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
	}
	for _, fl := range flights {
		s.queue <- fl
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// coalesceRecovered groups recovered jobs into flights by content
// address, exactly as joinFlightLocked would have had they been submitted
// to a live daemon; it returns the flights to queue. Runs before the
// worker pool starts.
func (s *Server) coalesceRecovered(jobs []*Job) []*flight {
	var flights []*flight
	for _, job := range jobs {
		fl, opened := s.joinFlightLocked(job, s.keyFor(job.kind, &job.Spec))
		if opened {
			flights = append(flights, fl)
		} else {
			s.note("job %s coalesced with recovered %s (same content address)", job.ID, fl.lead().ID)
		}
	}
	return flights
}

// joinFlightLocked attaches job to the open flight for its content
// address, or opens one, and reports which. A joining member is born
// running if the flight already is, and the flight keeps the furthest
// checkpoint any member brought — every member's spec reaches the same
// result, so the most progressed checkpoint serves them all. An opened
// flight is in the index but not yet queued: that, and what a full queue
// means, is the caller's business. Callers hold s.mu.
func (s *Server) joinFlightLocked(job *Job, key string) (fl *flight, opened bool) {
	fl, open := s.flights[key]
	if !open {
		fl = &flight{key: key, jobs: []*Job{job}, resume: job.resume, cycle: job.Cycle}
		if key != "" {
			s.flights[key] = fl
		}
		job.flight = fl
		return fl, true
	}
	job.Coalesced = true
	if fl.running {
		job.Status = StatusRunning
	}
	if job.resume != nil && (fl.resume == nil || job.Cycle > fl.cycle) {
		fl.resume, fl.cycle = job.resume, job.Cycle
	}
	fl.jobs = append(fl.jobs, job)
	job.flight = fl
	return fl, false
}

// keyFor computes the content address of a normalized spec, or "" when
// memoization is off or the spec has none — an uncacheable job still
// runs, it just never coalesces or populates the store.
func (s *Server) keyFor(k *jobKind, spec *JobSpec) string {
	if s.cfg.Cache == nil {
		return ""
	}
	key, err := keyOf(k, spec)
	if err != nil {
		return ""
	}
	return key
}

// jobIDLess orders "job-N" IDs numerically.
func jobIDLess(a, b string) bool {
	an, aerr := strconv.Atoi(strings.TrimPrefix(a, "job-"))
	bn, berr := strconv.Atoi(strings.TrimPrefix(b, "job-"))
	if aerr == nil && berr == nil {
		return an < bn
	}
	return a < b
}

// persistJob writes a job's record (and checkpoint, when it carries
// one) through the durable layer: sealed envelopes, atomic replacement,
// fsync of file and directory. The checkpoint goes first so a crash
// between the two writes leaves an older-but-consistent pair — the
// record never references bytes that are not fully on disk. Callers
// hold s.mu, which also serializes these writes against dropPersisted.
func (s *Server) persistJob(job *Job) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	rec, err := json.Marshal(persistedJob{ID: job.ID, Spec: job.Spec, Cycle: job.Cycle})
	if err != nil {
		return err
	}
	// Set before the writes: a failed one may still have left a file.
	job.persisted = true
	if job.resume != nil {
		if err := durable.WriteFile(filepath.Join(s.cfg.StateDir, job.ID+checkpointSuffix), job.resume, 0o644); err != nil {
			return err
		}
	}
	return durable.WriteSealed(filepath.Join(s.cfg.StateDir, job.ID+jobRecordSuffix), rec, 0o644)
}

// testDropHook, when set by a test, runs once per job whose state files
// dropPersisted actually unlinks.
var testDropHook func(id string)

// dropPersisted removes a job's on-disk record and checkpoint after it
// reaches a terminal state — for a job that has them. Callers hold s.mu.
func (s *Server) dropPersisted(job *Job) {
	if !job.persisted {
		return
	}
	job.persisted = false
	if testDropHook != nil {
		testDropHook(job.ID)
	}
	os.Remove(filepath.Join(s.cfg.StateDir, job.ID+jobRecordSuffix))
	os.Remove(filepath.Join(s.cfg.StateDir, job.ID+checkpointSuffix))
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for fl := range s.queue {
		s.runFlight(fl)
	}
}

// testPanicHook, when set by a test, runs at the top of a job's
// execution — the deterministic way to stage a worker panic.
var testPanicHook func(*Job)

// testRunHook, when set by a test, runs once per flight that actually
// reaches execution (past the dequeue-time cache recheck) — the
// deterministic way to count how many simulations really ran.
var testRunHook func()

// runFlight executes one dequeued flight end to end. A panic anywhere in
// the execution is isolated here: every still-attached member is marked
// failed with the stack attached and the worker survives to take the
// next flight — one misbehaving workload must never take down the whole
// daemon.
func (s *Server) runFlight(fl *flight) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			for _, job := range fl.jobs {
				if job.Status == StatusRunning {
					job.Status = StatusFailed
					job.Error = fmt.Sprintf("worker panic: %v\n\n%s", r, debug.Stack())
					s.dropPersisted(job)
				}
			}
			s.unregisterFlightLocked(fl)
			s.mu.Unlock()
		}
	}()

	s.mu.Lock()
	if len(fl.jobs) == 0 {
		// Every member canceled while the flight waited in the queue.
		s.mu.Unlock()
		return
	}
	if s.draining.Load() {
		// Shutdown drained this flight before it ever ran: suspend the
		// members as-is (with whatever checkpoint the flight already
		// carried) for the next daemon instance.
		for _, job := range fl.jobs {
			job.Status = StatusSuspended
			job.Cycle, job.resume = fl.cycle, fl.resume
			s.persistJob(job)
		}
		s.unregisterFlightLocked(fl)
		s.mu.Unlock()
		return
	}
	fl.running = true
	for _, job := range fl.jobs {
		job.Status = StatusRunning
	}
	lead := fl.lead()
	s.mu.Unlock()

	if testPanicHook != nil {
		testPanicHook(lead)
	}
	// Dequeue-time recheck: an identical flight may have completed (and
	// populated the cache) while this one waited in the queue — most
	// importantly for recovered jobs, which re-enter the queue without
	// passing through Submit's cache probe.
	if res := s.cached(fl.key, lead.kind); res != nil {
		s.finishFlight(fl, verdict{status: StatusDone, result: res, cached: true})
		return
	}
	if testRunHook != nil {
		testRunHook()
	}

	// One run with cooperative interruption, whatever the kind: a DELETE
	// of the last member cancels at the next interrupt poll, a Shutdown
	// suspends with a checkpoint that the restarted daemon resumes, and a
	// wall-clock deadline fails it (a kind that cannot stop mid-run is
	// polled once when it is over: jobKind.exec). With a state directory,
	// every periodic checkpoint the run takes is persisted for every
	// attached member as it is taken, so even a SIGKILLed daemon resumes
	// each of them from the last completed interval.
	started := time.Now()
	ctl := &experiments.SimControl{Interrupt: s.interruptPoll(fl, started)}
	if s.cfg.StateDir != "" {
		ctl.OnCheckpoint = func(data []byte, cycle uint64) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			fl.resume, fl.cycle = data, cycle
			for _, job := range fl.jobs {
				if job.Status != StatusRunning {
					// Raced with a cancel: don't resurrect dropped files.
					continue
				}
				job.Cycle, job.resume = cycle, data
				if err := s.persistJob(job); err != nil {
					// Persistence is best-effort while the job is healthy; a
					// full disk must not kill a running simulation.
					s.note("job %s: rolling checkpoint at cycle %d not persisted: %v", job.ID, cycle, err)
				}
			}
			return nil
		}
	}
	res, err := lead.kind.exec(&lead.Spec, fl.resume, ctl)
	if err != nil && fl.resume != nil && errors.Is(err, sim.ErrCorruptSnapshot) {
		// The resume blob was damaged in memory-to-run handoff, or it
		// passed the envelope's CRC but not the state walk's checks (a
		// foreign writer). Quarantine the idea of resuming and rerun from
		// scratch — determinism makes the fresh run's bytes identical.
		s.mu.Lock()
		fl.resume, fl.cycle = nil, 0
		s.note("job %s: resume checkpoint rejected (%v); rerunning from cycle 0", lead.ID, err)
		s.mu.Unlock()
		res, err = lead.kind.exec(&lead.Spec, nil, ctl)
	}
	s.finishFlight(fl, s.verdictOf(fl, res, err, started))
}

// cached is cachedLocked for a caller that does not hold s.mu.
func (s *Server) cached(key string, k *jobKind) *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cachedLocked(key, k)
}

// cachedLocked returns the stored result for a content address, decoded
// as kind k, or nil. The store answers first, every time — presence, tier
// promotion, the CRC and eviction are its business — and only then is the
// decoding spared: the Result this daemon last decoded for the address is
// reused iff the payload the store just returned is byte-equal to the one
// it was decoded from. An entry that fails to decode is deleted from the
// store (it passed the CRC but not the codec — format drift or a foreign
// writer) and reported as absent, so the job runs normally. Callers hold
// s.mu. (Get touches the disk tier on a memory miss; that IO rides under
// s.mu, which is fine at this service's scale and is what makes admit's
// probe atomic with finishFlight's populate-then-unregister.)
func (s *Server) cachedLocked(key string, k *jobKind) *Result {
	payload, ok := s.cfg.Cache.Get(key)
	if !ok {
		return nil
	}
	if d, ok := s.decoded.get(key); ok && bytes.Equal(d.payload, payload) {
		s.counts.decodedHits.Add(1)
		return d.res
	}
	s.counts.decodedMisses.Add(1)
	res, err := decodeAs(k, payload)
	if err != nil {
		s.cfg.Cache.Delete(key)
		s.note("cache entry %.12s… undecodable (%v); evicted, running fresh", key, err)
		return nil
	}
	s.decoded.put(key, decodedResult{payload: payload, res: res}, decodedCost(payload))
	return res
}

// interruptPoll builds the poll a flight's run consults between slices:
// the last member's DELETE and the wall-clock deadline both stop it, a
// draining daemon suspends it.
func (s *Server) interruptPoll(fl *flight, started time.Time) func() experiments.InterruptKind {
	return func() experiments.InterruptKind {
		switch {
		case fl.cancel.Load():
			return experiments.CancelRun
		case s.cfg.JobDeadline > 0 && time.Since(started) > s.cfg.JobDeadline:
			return experiments.CancelRun
		case s.draining.Load():
			return experiments.SuspendRun
		}
		return experiments.KeepRunning
	}
}

// verdict is how a flight ended: decided once, from what the run
// returned (or the store held), and applied unchanged to every member —
// two members of one flight never settle differently, and what is cached
// is what is served.
type verdict struct {
	status JobStatus
	err    string
	// result is the output, set exactly when status is done. A run's
	// result populates the cache; cached marks one that came from it.
	result *Result
	cached bool
	// cycle and resume carry a suspended run's checkpoint.
	cycle  uint64
	resume []byte
}

// verdictOf maps a run's return to the flight's verdict. A run that
// returned a result is done, whatever was requested after its last
// interrupt poll. ErrCanceled is a stop the poll asked for: the last
// member's DELETE if the flight is flagged (canceled), else the deadline
// (failed, with the uniform message). *Interrupted is a suspend with its
// checkpoint. Anything else failed the job with the error's own text.
func (s *Server) verdictOf(fl *flight, res *Result, err error, started time.Time) verdict {
	var intr *experiments.Interrupted
	switch {
	case err == nil:
		return verdict{status: StatusDone, result: res}
	case errors.Is(err, experiments.ErrCanceled) && fl.cancel.Load():
		return verdict{status: StatusCanceled}
	case errors.Is(err, experiments.ErrCanceled):
		return verdict{status: StatusFailed, err: fmt.Sprintf("job exceeded its %v wall-clock deadline (ran %v)",
			s.cfg.JobDeadline, time.Since(started).Round(time.Millisecond))}
	case errors.As(err, &intr):
		return verdict{status: StatusSuspended, cycle: intr.Cycle, resume: intr.Checkpoint}
	default:
		return verdict{status: StatusFailed, err: err.Error()}
	}
}

// finishFlight settles every still-attached member under one lock hold:
// the cache is populated first, then each member takes the flight's
// verdict, then the flight unregisters. Submit holds the same lock for
// its cache-then-flights probe, so there is no window where a new
// identical submission sees neither the open flight nor the cached
// result.
func (s *Server) finishFlight(fl *flight, v verdict) {
	var payload []byte
	if v.result != nil && !v.cached && fl.key != "" {
		// Encoding failures are advisory: the members still get their
		// results, the store just isn't populated.
		payload, _ = v.result.encode()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if payload != nil {
		if err := s.cfg.Cache.Put(fl.key, payload); err != nil {
			s.note("cache entry %.12s… not persisted: %v", fl.key, err)
		}
	}
	for _, job := range fl.jobs {
		s.settleLocked(job, v)
	}
	s.unregisterFlightLocked(fl)
}

// settleLocked applies a verdict to one job. A done job gets the result
// with its own spec echoed in; a suspended one keeps the checkpoint and
// re-persists; every other ending sheds the on-disk record and
// checkpoint. Callers hold s.mu.
func (s *Server) settleLocked(job *Job, v verdict) {
	job.Status, job.Error, job.resume = v.status, v.err, nil
	switch v.status {
	case StatusDone:
		job.Result, job.Cached = job.kind.echo(v.result, &job.Spec), v.cached
	case StatusSuspended:
		job.Cycle, job.resume = v.cycle, v.resume
		if perr := s.persistJob(job); perr != nil {
			job.Status, job.Error = StatusFailed, fmt.Sprintf("suspend: %v", perr)
		}
	}
	if job.Status != StatusSuspended {
		s.dropPersisted(job)
	}
}

// unregisterFlightLocked removes fl from the open-flight index so later
// identical submissions start (or hit the cache) fresh. Callers hold
// s.mu. Idempotent; a newer flight under the same key is left alone.
func (s *Server) unregisterFlightLocked(fl *flight) {
	if fl.key != "" && s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
}

// Shutdown stops accepting jobs, suspends everything queued or running
// (sim jobs checkpoint at their next interrupt poll), and waits for the
// workers to drain. After Shutdown, a New on the same StateDir resumes
// the suspended jobs.
func (s *Server) Shutdown() {
	// Closing the queue under the lock keeps Submit's non-blocking send
	// from racing a send-on-closed-channel panic. Idempotent: a second
	// Shutdown just waits for the drain.
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit admits a job spec. The spec is normalized here, once — EVERY
// admission path, HTTP and programmatic alike, goes through normalized
// and then admit, so a job's identity, its persisted record and its log
// lines always agree on the canonical spelling. Returns ErrQueueFull /
// ErrDraining for the two refusals.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	adm, err := s.normalized(spec)
	if err != nil {
		return nil, err
	}
	return s.admit(adm)
}

// normalized validates and canonicalizes a decoded spec, resolves its
// kind and computes its content address.
func (s *Server) normalized(spec JobSpec) (admission, error) {
	spec, k, err := normalizeSpec(spec)
	if err != nil {
		return admission{}, err
	}
	return admission{spec: spec, kind: k, key: s.keyFor(k, &spec)}, nil
}

// admissionOf is normalized for a raw request body. Decoding, normalizing
// and keying are pure functions of the bytes, so a body this daemon has
// admitted before is answered from the admission memo, keyed by the
// body's SHA-256; only a body that got all the way through is remembered,
// so a rejected one is judged afresh, and worded the same, every time. A
// differently spelled equal spec is a different body: it misses here,
// meets the first at the store, and echoes its own spelling.
func (s *Server) admissionOf(body []byte) (admission, error) {
	sum := sha256.Sum256(body)
	if adm, ok := s.admissions.get(sum); ok {
		s.counts.memoHits.Add(1)
		return adm, nil
	}
	s.counts.memoMisses.Add(1)
	spec, err := decodeJobSpec(body)
	if err != nil {
		return admission{}, err
	}
	adm, err := s.normalized(spec)
	if err != nil {
		return admission{}, err
	}
	s.admissions.put(sum, adm, adm.cost())
	return adm, nil
}

// admit is the one admission body. With a cache configured, admission is
// memoized: a stored content address answers instantly (the job is born
// done, no queue slot consumed, nothing written to the state directory),
// an open flight for the address absorbs the job as a coalesced member,
// and only a genuinely new address takes a queue slot.
func (s *Server) admit(adm admission) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrDraining
	}
	job := &Job{ID: fmt.Sprintf("job-%d", s.nextID), Spec: adm.spec, kind: adm.kind, Status: StatusQueued}

	// Memoized admission, probe one: the store.
	if res := s.cachedLocked(adm.key, adm.kind); res != nil {
		s.register(job)
		s.settleLocked(job, verdict{status: StatusDone, result: res, cached: true})
		return job, nil
	}
	// Probe two: an open flight for the same address absorbs the job;
	// only a new address takes a queue slot.
	if fl, opened := s.joinFlightLocked(job, adm.key); opened {
		select {
		case s.queue <- fl:
		default:
			s.unregisterFlightLocked(fl)
			return nil, ErrQueueFull
		}
	}
	s.register(job)
	// Persist the record at admission so even a SIGKILLed daemon requeues
	// every accepted job on restart. Best-effort: a full disk degrades
	// durability, not service. (The write happens under s.mu, which
	// orders it before any worker's dropPersisted for this job.)
	if err := s.persistJob(job); err != nil {
		s.note("job %s: admission record not persisted: %v", job.ID, err)
	}
	return job, nil
}

// register indexes a freshly admitted job. Callers hold s.mu.
func (s *Server) register(job *Job) {
	s.nextID++
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

// Cancel requests a job stop. A queued or coalesced job detaches and
// cancels immediately — other members of its flight are untouched; only
// canceling the LAST member asks the running simulation itself to stop
// at its next interrupt poll. A suspended job is dropped along with its
// checkpoint. The bool reports whether the job exists.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch job.Status {
	case StatusQueued, StatusRunning:
		fl := job.flight
		if job.Status == StatusRunning && len(fl.jobs) == 1 && fl.jobs[0] == job {
			// Last member of a live run: cooperative stop. The flight
			// unregisters now so an identical submission arriving before
			// the stop lands starts fresh instead of joining a doomed run.
			fl.cancel.Store(true)
			s.unregisterFlightLocked(fl)
			break
		}
		fl.detach(job)
		s.settleLocked(job, verdict{status: StatusCanceled})
		if len(fl.jobs) == 0 {
			// Emptied while still queued: the worker will skip the husk.
			s.unregisterFlightLocked(fl)
		}
	case StatusSuspended:
		s.settleLocked(job, verdict{status: StatusCanceled})
	}
	return job, true
}

// Recovery returns a copy of the boot-time recovery report.
func (s *Server) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recovery
	rec.Notes = append([]string(nil), s.recovery.Notes...)
	return rec
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// jobView is the status JSON for one job.
type jobView struct {
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	Cycle  uint64    `json:"cycle,omitempty"`
	// Cached: served from the content-addressed store, no run happened.
	Cached bool `json:"cached,omitempty"`
	// Coalesced: shared another identical submission's run.
	Coalesced bool `json:"coalesced,omitempty"`
}

// viewLocked renders a job's status snapshot. Callers hold s.mu.
func viewLocked(job *Job) jobView {
	return jobView{ID: job.ID, Kind: job.Spec.Kind, Status: job.Status, Error: job.Error,
		Cycle: job.Cycle, Cached: job.Cached, Coalesced: job.Coalesced}
}

// view renders a job's status snapshot under the lock.
func (s *Server) view(job *Job) jobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return viewLocked(job)
}

// Handler returns the HTTP API:
//
//	POST   /jobs             submit a JobSpec (202, or 429 + Retry-After);
//	                         X-Nocd-Cache: hit|coalesced|miss when a
//	                         cache is configured
//	GET    /jobs             list job statuses
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result result: ?format=json|csv|text, ?file= for
//	                         experiment CSV artifacts
//	DELETE /jobs/{id}        cancel (cooperative for running sim jobs)
//	GET    /healthz          liveness + queue depth (always 200 while up)
//	GET    /readyz           readiness: queue utilization, cache stats
//	                         and the boot recovery report; 503 draining
//
// Every route runs under a recovery middleware: a panicking handler
// answers 500 with a JSON error instead of tearing down the connection
// (and, with it, operator trust).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return recoverMiddleware(mux)
}

// recoverMiddleware turns a handler panic into a 500 JSON error so one
// bad request cannot crash the daemon. http.ErrAbortHandler is the
// net/http-sanctioned way to abort a response and is re-raised.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				httpError(w, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// healthView is the /healthz body.
type healthView struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
}

// readyView is the /readyz body.
type readyView struct {
	Status        string          `json:"status"`
	QueueDepth    int             `json:"queue_depth"`
	QueueCapacity int             `json:"queue_capacity"`
	Workers       int             `json:"workers"`
	Cache         *artifact.Stats `json:"cache,omitempty"`
	Admission     admissionView   `json:"admission"`
	Recovery      RecoveryReport  `json:"recovery"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthView{Status: "ok", QueueDepth: len(s.queue)})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	v := readyView{
		Status:        "ready",
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Admission:     s.admissionStats(),
		Recovery:      s.Recovery(),
	}
	if s.cfg.Cache != nil {
		st := s.cfg.Cache.Stats()
		v.Cache = &st
	}
	status := http.StatusOK
	if s.draining.Load() {
		v.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, v)
}

// admissionStats reads the warm path's counters and memo occupancy.
func (s *Server) admissionStats() admissionView {
	return admissionView{
		MemoHits:      s.counts.memoHits.Load(),
		MemoMisses:    s.counts.memoMisses.Load(),
		MemoBytes:     s.admissions.size(),
		DecodedHits:   s.counts.decodedHits.Load(),
		DecodedMisses: s.counts.decodedMisses.Load(),
		DecodedBytes:  s.decoded.size(),
	}
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"job spec exceeds the %d-byte limit", maxJobSpecBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var job *Job
	adm, err := s.admissionOf(body)
	if err == nil {
		job, err = s.admit(adm)
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		httpError(w, http.StatusTooManyRequests, "queue is full (%d jobs waiting); retry later", s.cfg.QueueDepth)
		return
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view := s.view(job)
	if s.cfg.Cache != nil {
		w.Header().Set("X-Nocd-Cache", admissionDisposition(view))
	}
	writeJSON(w, http.StatusAccepted, view)
}

// admissionDisposition names how an admitted job was answered, for the
// X-Nocd-Cache response header.
func admissionDisposition(v jobView) string {
	switch {
	case v.Cached:
		return "hit"
	case v.Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// readBody reads a request body with the job-spec size cap. Passing the
// ResponseWriter lets MaxBytesReader close the connection after an
// over-limit body, so the client stops uploading; a *http.MaxBytesError
// propagates to the caller, which maps it to 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, viewLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.view(job))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.view(job))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	status, res, k, cached := job.Status, job.Result, job.kind, job.Cached
	s.mu.Unlock()
	if status != StatusDone {
		httpError(w, http.StatusConflict, "job is %s, not done", status)
		return
	}
	if s.cfg.Cache != nil {
		disposition := "miss"
		if cached {
			disposition = "hit"
		}
		w.Header().Set("X-Nocd-Cache", disposition)
	}

	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		body, _ := k.slot(res)
		writeJSON(w, http.StatusOK, body)
	case "csv":
		body, err := k.csv(res, r.URL.Query().Get("file"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, body)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, k.text(res))
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json, csv or text)", format)
	}
}
