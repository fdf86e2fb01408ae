package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/sim"
)

// quickSimSpec returns a normalized quick sim spec — what a POSTed
// {"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}
// parses to.
func quickSimSpec(t *testing.T) JobSpec {
	t.Helper()
	spec, err := ParseJobSpec([]byte(`{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// writeRecord persists a valid sealed job record the way the daemon
// itself would.
func writeRecord(t *testing.T, dir, id string, spec JobSpec) {
	t.Helper()
	rec, err := json.Marshal(persistedJob{ID: id, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteSealed(filepath.Join(dir, id+jobRecordSuffix), rec, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryQuarantinesCorruptRecord: a damaged job record must not
// prevent startup; it moves to quarantine/ beside a .reason note and
// its checkpoint goes with it.
func TestRecoveryQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-0.job"), []byte("not a sealed envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-0.ckpt"), []byte("whatever"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("daemon refused to start on damaged state: %v", err)
	}
	defer s.Shutdown()

	rec := s.Recovery()
	if rec.Quarantined != 1 || rec.Resumed != 0 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want exactly 1 quarantined", rec)
	}
	for _, name := range []string{"job-0.job", "job-0.ckpt", "job-0.job.reason"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, name)); err != nil {
			t.Errorf("quarantine/%s missing: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "job-0.job")); !os.IsNotExist(err) {
		t.Error("damaged record still in the state directory")
	}
}

// TestRecoveryRequeuesCorruptCheckpoint is the core acceptance property:
// record intact, checkpoint rotted → the checkpoint is quarantined and
// the job reruns from cycle 0, finishing with bytes identical to an
// uninterrupted run (the simulator is deterministic).
func TestRecoveryRequeuesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := quickSimSpec(t)
	writeRecord(t, dir, "job-0", spec)
	if err := os.WriteFile(filepath.Join(dir, "job-0.ckpt"), []byte("torn checkpoint bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{StateDir: dir})
	defer s.Shutdown()

	rec := s.Recovery()
	if rec.Requeued != 1 || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want exactly 1 requeued", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "job-0.ckpt")); err != nil {
		t.Errorf("rotted checkpoint not quarantined: %v", err)
	}

	waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone })
	got := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK)

	want, err := experiments.RunSim(*spec.Sim, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.CSV() {
		t.Error("requeued run's CSV differs from an uninterrupted run")
	}
}

// TestRecoveryResumesValidCheckpoint: intact record + intact checkpoint
// counts as resumed, and the job continues to the same final bytes.
func TestRecoveryResumesValidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := quickSimSpec(t)

	// Produce a genuine mid-run checkpoint by running with a rolling
	// checkpoint callback.
	var ckpt []byte
	var at uint64
	ctl := &experiments.SimControl{OnCheckpoint: func(data []byte, cycle uint64) error {
		if ckpt == nil {
			ckpt = append([]byte(nil), data...)
			at = cycle
		}
		return nil
	}}
	ckptSpec := *spec.Sim
	ckptSpec.CheckpointEvery = 500
	want, err := experiments.RunSim(ckptSpec, nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatal("quick run produced no checkpoint")
	}

	recSpec := spec
	recSpec.Sim = &ckptSpec
	writeRecord(t, dir, "job-0", recSpec)
	if err := durable.WriteFile(filepath.Join(dir, "job-0.ckpt"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{StateDir: dir})
	defer s.Shutdown()
	if rec := s.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery = %+v, want 1 resumed (checkpoint at cycle %d)", rec, at)
	}
	waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone })
	got := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK)
	if got != want.CSV() {
		t.Error("resumed run's CSV differs from the uninterrupted run")
	}
}

// TestRecoveryRequeuesStaleCheckpoint: a checkpoint sealed by a daemon
// built at another snapshot version passes the frame check but can never
// resume. It must be quarantined with its reason and the job requeued
// from cycle 0 — not counted resumed, started at its old cycle and
// refused mid-flight — and the rerun must reach the uninterrupted bytes.
func TestRecoveryRequeuesStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := quickSimSpec(t)
	var ckpt []byte
	var at uint64
	ctl := &experiments.SimControl{OnCheckpoint: func(data []byte, cycle uint64) error {
		if ckpt == nil {
			ckpt, at = append([]byte(nil), data...), cycle
		}
		return nil
	}}
	ckptSpec := *spec.Sim
	ckptSpec.CheckpointEvery = 500
	want, err := experiments.RunSim(ckptSpec, nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatal("quick run produced no checkpoint")
	}

	// The same state under the previous version's header, resealed: only
	// the version differs from a resumable checkpoint.
	payload, err := sim.VerifySnapshotFrame(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewDecoder(payload)
	h, err := sim.ReadSnapshotHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	h.Version = sim.SnapshotVersion - 1
	e := sim.NewEncoder()
	sim.WriteSnapshotHeader(e, h)
	for _, b := range payload[len(payload)-d.Remaining():] {
		e.PutU8(b)
	}
	sim.WriteSnapshotTrailer(e)

	recSpec := spec
	recSpec.Sim = &ckptSpec
	rec, err := json.Marshal(persistedJob{ID: "job-0", Spec: recSpec, Cycle: at})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteSealed(filepath.Join(dir, "job-0"+jobRecordSuffix), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(filepath.Join(dir, "job-0.ckpt"), e.Data(), 0o644); err != nil {
		t.Fatal(err)
	}

	var startCycle atomic.Uint64
	var resumed atomic.Bool
	testPanicHook = func(lead *Job) {
		startCycle.Store(lead.flight.cycle)
		resumed.Store(lead.flight.resume != nil)
	}
	s, ts := testServer(t, Config{StateDir: dir, Workers: 1})
	defer func() {
		s.Shutdown()
		testPanicHook = nil
	}()
	if rec := s.Recovery(); rec.Requeued != 1 || rec.Resumed != 0 || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want exactly 1 requeued", rec)
	}
	reason, err := os.ReadFile(filepath.Join(dir, quarantineDirName, "job-0.ckpt.reason"))
	if err != nil || !strings.Contains(string(reason), "version") {
		t.Errorf("stale checkpoint's quarantine reason %q (%v) does not name the version", reason, err)
	}
	waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone })
	if resumed.Load() || startCycle.Load() != 0 {
		t.Errorf("job started from cycle %d (resume %v), want a rerun from cycle 0", startCycle.Load(), resumed.Load())
	}
	if got := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK); got != want.CSV() {
		t.Error("requeued run's CSV differs from the uninterrupted run")
	}
}

// TestRecoveryCleansDebris: torn temp files are deleted, legacy .json
// records and orphaned checkpoints are quarantined.
func TestRecoveryCleansDebris(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"job-1.ckpt.tmp": "half-written stage",
		"job-2.json":     `{"id":"job-2"}`,
		"job-3.ckpt":     "checkpoint without a record",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	if _, err := os.Stat(filepath.Join(dir, "job-1.ckpt.tmp")); !os.IsNotExist(err) {
		t.Error("torn temp file survived recovery")
	}
	for _, name := range []string{"job-2.json", "job-3.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, name)); err != nil {
			t.Errorf("quarantine/%s missing: %v", name, err)
		}
	}
	if rec := s.Recovery(); rec.Quarantined != 2 {
		t.Fatalf("recovery = %+v, want 2 quarantined", rec)
	}
}

// TestRecoveryAdvancesNextID: new submissions must not collide with
// recovered job IDs.
func TestRecoveryAdvancesNextID(t *testing.T) {
	dir := t.TempDir()
	writeRecord(t, dir, "job-7", quickSimSpec(t))
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	job, err := s.Submit(quickSimSpec(t))
	if err != nil {
		t.Fatalf("submit rejected: %v", err)
	}
	if job.ID != "job-8" {
		t.Fatalf("next submission got %s, want job-8", job.ID)
	}
}

// TestWorkerPanicIsolated: a panicking job is marked failed with the
// stack attached and the daemon keeps serving — the next job runs on
// the same worker pool.
func TestWorkerPanicIsolated(t *testing.T) {
	poison := true
	testPanicHook = func(job *Job) {
		if poison {
			poison = false
			panic("injected workload panic")
		}
	}
	defer func() { testPanicHook = nil }()

	s, ts := testServer(t, Config{Workers: 1})
	defer s.Shutdown()

	var v1 jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`), &v1)
	got := waitFor(t, ts.URL, v1.ID, func(st JobStatus) bool { return st == StatusFailed })
	if !strings.Contains(got.Error, "worker panic: injected workload panic") {
		t.Fatalf("job error %q does not carry the panic", got.Error)
	}
	if !strings.Contains(got.Error, "runJob") && !strings.Contains(got.Error, "goroutine") {
		t.Fatalf("job error %q does not carry a stack", got.Error)
	}

	// The daemon survived: the very next job completes normally.
	var v2 jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`), &v2)
	waitFor(t, ts.URL, v2.ID, func(st JobStatus) bool { return st == StatusDone })
}

// TestHandlerPanicRecovered: a panic inside an HTTP handler answers 500
// JSON instead of killing the connection.
func TestHandlerPanicRecovered(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("non-JSON 500 body %q: %v", rr.Body.Bytes(), err)
	}
	if !strings.Contains(body["error"], "handler bug") {
		t.Fatalf("500 body %v does not name the panic", body)
	}
}

// TestJobDeadlineFailsSimJob: a sim job over its wall-clock budget stops
// at the next interrupt poll and reports a deadline failure.
func TestJobDeadlineFailsSimJob(t *testing.T) {
	s, ts := testServer(t, Config{JobDeadline: time.Nanosecond})
	defer s.Shutdown()
	var v jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`), &v)
	got := waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusFailed })
	if !strings.Contains(got.Error, "wall-clock deadline") {
		t.Fatalf("job error %q does not mention the deadline", got.Error)
	}
}

// TestSubmitBodyTooLarge: satellite regression test — an over-limit
// submission must answer 413 with a JSON error, not 400 or a panic
// (http.MaxBytesReader used to be called with a nil ResponseWriter).
func TestSubmitBodyTooLarge(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()
	big := append([]byte(`{"kind":"sim","sim":{"config":"`), bytes.Repeat([]byte{'x'}, maxJobSpecBytes+1024)...)
	big = append(big, []byte(`"}}`)...)
	var body map[string]string
	resp := doJSON(t, "POST", ts.URL+"/jobs", big, &body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(body["error"], "limit") {
		t.Fatalf("413 body %v does not explain the limit", body)
	}
}

// TestHealthAndReady: /healthz always answers while up; /readyz carries
// queue shape and the recovery report, and flips to 503 on drain.
func TestHealthAndReady(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-0.job"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{StateDir: dir, QueueDepth: 5, Workers: 3})

	var h healthView
	if resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}

	var rv readyView
	if resp := doJSON(t, "GET", ts.URL+"/readyz", nil, &rv); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
	if rv.Status != "ready" || rv.QueueCapacity != 5 || rv.Workers != 3 {
		t.Fatalf("readyz = %+v", rv)
	}
	if rv.Recovery.Quarantined != 1 {
		t.Fatalf("readyz recovery = %+v, want the quarantined record visible", rv.Recovery)
	}

	s.Shutdown()
	resp := doJSON(t, "GET", ts.URL+"/readyz", nil, &rv)
	if resp.StatusCode != http.StatusServiceUnavailable || rv.Status != "draining" {
		t.Fatalf("draining readyz: HTTP %d, status %q", resp.StatusCode, rv.Status)
	}
}

// TestSubmitPersistsRecordAtAdmission: the record hits disk before the
// 202 goes out, so even a SIGKILL right after acceptance requeues the
// job on restart.
func TestSubmitPersistsRecordAtAdmission(t *testing.T) {
	dir := t.TempDir()
	// Plug the single worker so the submitted job stays queued. The hook
	// goes in before the worker exists and comes out after it is gone, so
	// the worker never reads it while the test writes it.
	testPanicHook = func(job *Job) { time.Sleep(50 * time.Millisecond) }
	s, err := New(Config{StateDir: dir, Workers: 1})
	if err != nil {
		testPanicHook = nil
		t.Fatal(err)
	}
	defer func() {
		s.Shutdown()
		testPanicHook = nil
	}()

	job, err := s.Submit(quickSimSpec(t))
	if err != nil {
		t.Fatalf("submit rejected: %v", err)
	}
	payload, rerr := durable.ReadSealed(filepath.Join(dir, job.ID+jobRecordSuffix))
	if rerr != nil {
		t.Fatalf("admission record unreadable: %v", rerr)
	}
	var p persistedJob
	if err := json.Unmarshal(payload, &p); err != nil || p.ID != job.ID {
		t.Fatalf("admission record %q: %v", payload, err)
	}
}

// TestRecoveryRunsSpecsWithInertEngineKeys: a daemon that still had the
// partitioned tick engine persisted job records whose custom-config and
// serving documents carry "partitions" and "lookahead". The keys are still
// accepted and do nothing: such a record recovers after a restart, runs,
// and returns the bytes of the same spec without the keys, under the same
// JobKey, echoing neither key.
func TestRecoveryRunsSpecsWithInertEngineKeys(t *testing.T) {
	const keys = `"partitions":4,"lookahead":16`
	config := func(extra string) string {
		doc := strings.Replace(strings.TrimSpace(cacheMultiringSpec), "{", "{"+extra, 1)
		body, err := json.Marshal(map[string]interface{}{
			"kind": "sim", "sim": map[string]interface{}{"topology": "custom", "cycles": 1500, "config": doc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	serving := func(extra string) string {
		return `{"kind":"serving","serving":{` + extra + `"seed":9,"loads":[4,64],"cycles":4000}}`
	}
	dir := t.TempDir()
	var plain []JobSpec
	for i, submission := range []func(string) string{config, serving} {
		keyed, err := ParseJobSpec([]byte(submission(keys + ",")))
		if err != nil {
			t.Fatalf("spec with the keys rejected: %v", err)
		}
		bare, err := ParseJobSpec([]byte(submission("")))
		if err != nil {
			t.Fatal(err)
		}
		if mustKey(t, keyed) != mustKey(t, bare) {
			t.Errorf("%s job: the keys changed the JobKey", keyed.Kind)
		}
		plain = append(plain, bare)
		// The record holds the spec as submitted, keys and all.
		var stored JobSpec
		if err := json.Unmarshal([]byte(submission(keys+",")), &stored); err != nil {
			t.Fatal(err)
		}
		writeRecord(t, dir, fmt.Sprintf("job-%d", i), stored)
	}

	s, ts := testServer(t, Config{StateDir: dir})
	defer s.Shutdown()
	if rec := s.Recovery(); rec.Requeued != 2 || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want both records requeued", rec)
	}
	waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone })
	waitFor(t, ts.URL, "job-1", func(st JobStatus) bool { return st == StatusDone })

	wantSim, err := experiments.RunSim(*plain[0].Sim, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK); got != wantSim.CSV() {
		t.Errorf("recovered custom-config job's CSV differs from the spec without the keys:\n%s\nwant:\n%s", got, wantSim.CSV())
	}
	wantServing, err := experiments.RunServingDoc(string(plain[1].Serving), experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts.URL+"/jobs/job-1/result?format=csv", http.StatusOK); got != wantServing.CSV() {
		t.Errorf("recovered serving job's CSV differs from the spec without the keys:\n%s\nwant:\n%s", got, wantServing.CSV())
	}
	for _, id := range []string{"job-0", "job-1"} {
		if got := fetchText(t, ts.URL+"/jobs/"+id+"/result", http.StatusOK); strings.Contains(got, "partitions") || strings.Contains(got, "lookahead") {
			t.Errorf("recovered %s echoes an inert key: %s", id, got)
		}
	}
}

// TestRecoveryNormalizesRecordSpecs: a sealed record is input like a
// submission, so recovery passes its spec through the same normalization.
// A record whose spec is {} — which POST /jobs accepts and defaults to
// the quick AI sim — used to recover with its kind unresolved: its flight
// hashed to the default sim's key, the kind check against the valid
// cache entry failed, the entry was deleted, and the worker then
// dereferenced the record's nil sim spec.
func TestRecoveryNormalizesRecordSpecs(t *testing.T) {
	store := testStore(t)
	warm, ts := testServer(t, Config{Cache: store})
	v, _ := submitJob(t, ts.URL, []byte(`{}`))
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
	wantCSV := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=csv", http.StatusOK)
	warm.Shutdown()

	t.Run("served from the cache", func(t *testing.T) {
		dir := t.TempDir()
		writeRecord(t, dir, "job-0", JobSpec{})
		s, ts := testServer(t, Config{StateDir: dir, Cache: store})
		defer s.Shutdown()
		got := waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone || st == StatusFailed })
		if got.Status != StatusDone || !got.Cached || got.Kind != "sim" {
			t.Fatalf("recovered job = %+v, want a done, cached sim job", got)
		}
		if csv := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK); csv != wantCSV {
			t.Errorf("recovered job's CSV differs from the default sim's:\n%s\nwant:\n%s", csv, wantCSV)
		}
		if n := store.Stats().DiskEntries; n != 1 {
			t.Errorf("cache holds %d entries after recovery, want the 1 it had", n)
		}
		for _, note := range s.Recovery().Notes {
			if strings.Contains(note, "undecodable") {
				t.Errorf("recovery evicted a valid cache entry: %s", note)
			}
		}
	})

	t.Run("runs without a cache", func(t *testing.T) {
		dir := t.TempDir()
		writeRecord(t, dir, "job-0", JobSpec{})
		s, ts := testServer(t, Config{StateDir: dir})
		defer s.Shutdown()
		got := waitFor(t, ts.URL, "job-0", func(st JobStatus) bool { return st == StatusDone || st == StatusFailed })
		if got.Status != StatusDone {
			t.Fatalf("recovered job = %+v, want done", got)
		}
		if csv := fetchText(t, ts.URL+"/jobs/job-0/result?format=csv", http.StatusOK); csv != wantCSV {
			t.Errorf("recovered job's CSV differs from the default sim's:\n%s\nwant:\n%s", csv, wantCSV)
		}
	})

	t.Run("an invalid spec is quarantined", func(t *testing.T) {
		dir := t.TempDir()
		writeRecord(t, dir, "job-0", JobSpec{Kind: "nope"})
		s, err := New(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		if rec := s.Recovery(); rec.Quarantined != 1 || rec.Requeued != 0 || rec.Resumed != 0 {
			t.Fatalf("recovery = %+v, want exactly 1 quarantined", rec)
		}
		reason, err := os.ReadFile(filepath.Join(dir, quarantineDirName, "job-0.job.reason"))
		if err != nil || !strings.Contains(string(reason), `unknown job kind "nope"`) {
			t.Errorf("quarantine reason %q (%v) does not name the bad kind", reason, err)
		}
	})
}
