package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chipletnoc/internal/experiments"
)

// testServer spins up a Server and its HTTP front end; cleanup shuts
// both down (idempotently, so tests may Shutdown explicitly first).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON performs one request and decodes the JSON reply into out.
func doJSON(t *testing.T, method, url string, body []byte, out interface{}) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp
}

// waitFor polls a job until its status satisfies ok. A job that ends
// failed or canceled when ok wants otherwise fails the test at once, with
// the job's error, instead of at the deadline.
func waitFor(t *testing.T, base, id string, ok func(JobStatus) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		resp := doJSON(t, "GET", base+"/jobs/"+id, nil, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", resp.StatusCode)
		}
		if ok(v.Status) {
			return v
		}
		if v.Status == StatusFailed || v.Status == StatusCanceled {
			t.Fatalf("job %s ended %q (%s)", id, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchText(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: HTTP %d (want %d): %s", url, resp.StatusCode, wantCode, data)
	}
	return string(data)
}

// TestServerSimJobMatchesCLI is the in-process version of the CI e2e
// gate: a sim job served over HTTP must render byte-identically to a
// direct RunSim call — the CLI's code path.
func TestServerSimJobMatchesCLI(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()

	var v jobView
	resp := doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`), &v)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })

	want, err := experiments.RunSim(experiments.SimSpec{Topology: "ai-processor", Scale: "quick"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=csv", 200); got != want.CSV() {
		t.Fatalf("service CSV differs from CLI:\nservice: %scli:     %s", got, want.CSV())
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=text", 200); got != want.Render() {
		t.Fatalf("service text differs from CLI")
	}
	var res experiments.SimResult
	doJSON(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil, &res)
	if res.LatencyFNV != "0x16a68fe7dc337024" {
		t.Fatalf("service latency digest %s drifted from golden", res.LatencyFNV)
	}
}

// TestServerExperimentJobMatchesCatalog: an experiment job's artifacts
// must equal a direct catalog run's.
func TestServerExperimentJobMatchesCatalog(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()

	var v jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"experiment":"fig11","scale":"quick"}`), &v)
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })

	want, err := experiments.RunExperiment("fig11", experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=csv", 200); got != want.CSVs["fig11.csv"] {
		t.Fatalf("experiment CSV differs from catalog run")
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=text", 200); got != want.Text {
		t.Fatalf("experiment text differs from catalog run")
	}
}

// TestServerBackpressure: with one worker busy and a depth-1 queue, a
// third submission gets 429 with a Retry-After hint, and the rejected
// job never appears in the listing.
func TestServerBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 1, Workers: 1, RetryAfterSeconds: 3})
	defer s.Shutdown()

	long := []byte(`{"sim":{"cycles":100000000,"checkpoint_every":512}}`)
	var first jobView
	doJSON(t, "POST", ts.URL+"/jobs", long, &first)
	waitFor(t, ts.URL, first.ID, func(st JobStatus) bool { return st == StatusRunning })

	var second jobView
	if resp := doJSON(t, "POST", ts.URL+"/jobs", long, &second); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: HTTP %d", resp.StatusCode)
	}
	resp := doJSON(t, "POST", ts.URL+"/jobs", long, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}

	var list []jobView
	doJSON(t, "GET", ts.URL+"/jobs", nil, &list)
	if len(list) != 2 {
		t.Fatalf("%d jobs listed after a rejection, want 2", len(list))
	}

	// Unblock shutdown: cancel both jobs.
	doJSON(t, "DELETE", ts.URL+"/jobs/"+first.ID, nil, nil)
	doJSON(t, "DELETE", ts.URL+"/jobs/"+second.ID, nil, nil)
	waitFor(t, ts.URL, first.ID, func(st JobStatus) bool { return st == StatusCanceled })
}

// TestServerCancelRunning: DELETE on a running job cancels it at the
// next checkpoint interval — far sooner than its hundred-million-cycle
// budget.
func TestServerCancelRunning(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()

	var v jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"sim":{"cycles":100000000,"checkpoint_every":512}}`), &v)
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusRunning })

	resp := doJSON(t, "DELETE", ts.URL+"/jobs/"+v.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusCanceled })
	fetchText(t, ts.URL+"/jobs/"+v.ID+"/result", http.StatusConflict)
}

// TestServerCancelQueued: DELETE on a queued job cancels it before it
// ever runs.
func TestServerCancelQueued(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 4, Workers: 1})
	defer s.Shutdown()

	long := []byte(`{"sim":{"cycles":100000000,"checkpoint_every":512}}`)
	var running, queued jobView
	doJSON(t, "POST", ts.URL+"/jobs", long, &running)
	waitFor(t, ts.URL, running.ID, func(st JobStatus) bool { return st == StatusRunning })
	doJSON(t, "POST", ts.URL+"/jobs", long, &queued)

	var afterDelete jobView
	doJSON(t, "DELETE", ts.URL+"/jobs/"+queued.ID, nil, &afterDelete)
	if afterDelete.Status != StatusCanceled {
		t.Fatalf("queued job after DELETE: %q, want canceled", afterDelete.Status)
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+running.ID, nil, nil)
	waitFor(t, ts.URL, running.ID, func(st JobStatus) bool { return st == StatusCanceled })
}

// TestServerGracefulShutdownResume is the service-level resume proof: a
// daemon shut down mid-job checkpoints it; a new daemon on the same
// state directory resumes and finishes it, and the result is
// byte-identical to a never-interrupted run. A second job still queued
// at shutdown survives the restart too.
func TestServerGracefulShutdownResume(t *testing.T) {
	stateDir := t.TempDir()
	specBody := `{"sim":{"topology":"ai-processor","scale":"quick","cycles":60000,"checkpoint_every":256}}`

	a, ts := testServer(t, Config{StateDir: stateDir, Workers: 1})
	var running, queued jobView
	doJSON(t, "POST", ts.URL+"/jobs", []byte(specBody), &running)
	waitFor(t, ts.URL, running.ID, func(st JobStatus) bool { return st == StatusRunning })
	doJSON(t, "POST", ts.URL+"/jobs", []byte(`{"sim":{"cycles":500}}`), &queued)

	a.Shutdown()
	av, _ := a.Get(running.ID)
	if av.Status != StatusSuspended || av.Cycle == 0 || av.Cycle >= 60000 {
		t.Fatalf("after shutdown: status %q at cycle %d", av.Status, av.Cycle)
	}
	qv, _ := a.Get(queued.ID)
	if qv.Status != StatusSuspended {
		t.Fatalf("queued job after shutdown: %q, want suspended", qv.Status)
	}
	ts.Close()

	b, ts2 := testServer(t, Config{StateDir: stateDir, Workers: 1})
	defer b.Shutdown()
	waitFor(t, ts2.URL, running.ID, func(st JobStatus) bool { return st == StatusDone })
	waitFor(t, ts2.URL, queued.ID, func(st JobStatus) bool { return st == StatusDone })

	want, err := experiments.RunSim(experiments.SimSpec{
		Topology: "ai-processor", Scale: "quick", Cycles: 60000, CheckpointEvery: 256,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts2.URL+"/jobs/"+running.ID+"/result?format=csv", 200); got != want.CSV() {
		t.Fatalf("resumed job differs from uninterrupted run:\nresumed: %sdirect:  %s", got, want.CSV())
	}
}

// TestServerRejectsBadSubmissions covers the HTTP-level validation.
func TestServerRejectsBadSubmissions(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()

	for _, body := range []string{`not json`, `{"jobs":1}`, `{"experiment":"fig99"}`} {
		if resp := doJSON(t, "POST", ts.URL+"/jobs", []byte(body), nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if resp := doJSON(t, "GET", ts.URL+"/jobs/job-999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	if got := fetchText(t, ts.URL+"/healthz", 200); got == "" {
		t.Fatal("empty healthz body")
	}
}

// TestServerQueueSurvivesManyJobs pushes several quick jobs through a
// two-worker pool and checks they all complete with the same digest —
// worker parallelism must not perturb determinism.
func TestServerQueueSurvivesManyJobs(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 8, Workers: 2})
	defer s.Shutdown()

	body := []byte(`{"sim":{"cycles":1500}}`)
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		var v jobView
		if resp := doJSON(t, "POST", ts.URL+"/jobs", body, &v); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	var first string
	for i, id := range ids {
		waitFor(t, ts.URL, id, func(st JobStatus) bool { return st == StatusDone })
		csv := fetchText(t, ts.URL+"/jobs/"+id+"/result?format=csv", 200)
		if i == 0 {
			first = csv
		} else if csv != first {
			t.Fatalf("job %s produced different bytes than its identical twin:\n%s\nvs\n%s", id, csv, first)
		}
	}
}

// TestFlightVerdict writes the finish rules down once: what the poll
// says for each request (cancel, deadline, drain), what a run makes of
// it — an interruptible kind honours all three between slices, a coarse
// one is polled once by exec when its run is over — and what verdict
// every member of the flight then gets. Only a done verdict carries a
// result, and only that is cached.
func TestFlightVerdict(t *testing.T) {
	ckpt := []byte("checkpoint")
	boom := errors.New("boom")
	for _, tc := range []struct {
		name                       string
		cancel, deadline, draining bool
		runErr                     error
		coarse                     bool
		status                     JobStatus
		errHas                     string
	}{
		{name: "sim completes", status: StatusDone},
		{name: "coarse completes", coarse: true, status: StatusDone},
		{name: "sim canceled", cancel: true, status: StatusCanceled},
		{name: "coarse canceled", cancel: true, coarse: true, status: StatusCanceled},
		{name: "sim past deadline", deadline: true, status: StatusFailed, errHas: "wall-clock deadline"},
		{name: "coarse past deadline", deadline: true, coarse: true, status: StatusFailed, errHas: "wall-clock deadline"},
		{name: "cancel outranks deadline", cancel: true, deadline: true, coarse: true, status: StatusCanceled},
		{name: "deadline outranks drain", deadline: true, draining: true, status: StatusFailed, errHas: "wall-clock deadline"},
		{name: "sim suspends on drain", draining: true, status: StatusSuspended},
		{name: "coarse finishes through drain", draining: true, coarse: true, status: StatusDone},
		{name: "sim run error", runErr: boom, status: StatusFailed, errHas: "boom"},
		{name: "coarse run error outranks cancel", runErr: boom, cancel: true, coarse: true, status: StatusFailed, errHas: "boom"},
	} {
		s := &Server{cfg: Config{JobDeadline: time.Minute}}
		s.draining.Store(tc.draining)
		fl := &flight{}
		fl.cancel.Store(tc.cancel)
		started := time.Now()
		if tc.deadline {
			started = started.Add(-time.Hour)
		}
		ctl := &experiments.SimControl{Interrupt: s.interruptPoll(fl, started)}

		// The interruptible stand-in keeps RunSim's contract for one poll;
		// the coarse one never looks at ctl.
		k := &jobKind{name: "fake", interruptible: !tc.coarse}
		k.run = func(_ *JobSpec, _ []byte, ctl *experiments.SimControl) (Result, error) {
			if tc.runErr != nil {
				return Result{}, tc.runErr
			}
			if k.interruptible {
				switch ctl.Interrupt() {
				case experiments.CancelRun:
					return Result{}, experiments.ErrCanceled
				case experiments.SuspendRun:
					return Result{}, &experiments.Interrupted{Cycle: 512, Checkpoint: ckpt}
				}
			}
			return Result{Sim: &experiments.SimResult{}}, nil
		}
		res, err := k.exec(&JobSpec{}, nil, ctl)
		v := s.verdictOf(fl, res, err, started)

		if v.status != tc.status || !strings.Contains(v.err, tc.errHas) || (tc.errHas == "" && v.err != "") {
			t.Errorf("%s: verdict %s %q, want %s with error containing %q", tc.name, v.status, v.err, tc.status, tc.errHas)
		}
		if cached := v.result != nil; cached != (tc.status == StatusDone) {
			t.Errorf("%s: result set = %v on a %s verdict (only done is cached)", tc.name, cached, v.status)
		}
		if tc.status == StatusSuspended && (v.cycle != 512 || !bytes.Equal(v.resume, ckpt)) {
			t.Errorf("%s: suspended at cycle %d with checkpoint %q, want the run's", tc.name, v.cycle, v.resume)
		}
	}
}

// TestCoarseKindsHonourCancelAndDeadline: an experiment or serving run
// cannot stop midway, but a DELETE of its last member or the deadline
// landing during it still decides the verdict — canceled or failed, and
// in neither case cached — through the same finish path a sim takes.
func TestCoarseKindsHonourCancelAndDeadline(t *testing.T) {
	for _, body := range []string{`{"experiment":"area","scale":"quick"}`, servingBody} {
		store := testStore(t)
		s, ts := testServer(t, Config{Cache: store, Workers: 1})
		release := gateFlights(t, s)
		v, _ := submitJob(t, ts.URL, []byte(body))
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusRunning })
		doJSON(t, "DELETE", ts.URL+"/jobs/"+v.ID, nil, nil)
		release()
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusCanceled })
		if puts := store.Stats().Puts; puts != 0 {
			t.Errorf("%s: a canceled run populated the cache (%d puts)", body, puts)
		}
		s.Shutdown()

		store = testStore(t)
		s, ts = testServer(t, Config{Cache: store, JobDeadline: time.Nanosecond})
		v, _ = submitJob(t, ts.URL, []byte(body))
		got := waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusFailed })
		if !strings.Contains(got.Error, "wall-clock deadline") {
			t.Errorf("%s: job error %q does not mention the deadline", body, got.Error)
		}
		if puts := store.Stats().Puts; puts != 0 {
			t.Errorf("%s: a run past its deadline populated the cache (%d puts)", body, puts)
		}
		s.Shutdown()
	}
}
