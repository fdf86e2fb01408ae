// The cache differential layer: proof that memoized admission is
// invisible in the bytes. For every reference fabric, a warm (cached)
// submission must return byte-identical CSV, JSON and text bodies to the
// cold run; specs differing only in identity-excluded knobs (partition
// count, checkpoint cadence) must hit; specs differing in any identity
// field (seed) must miss; and coalesced concurrent submissions must run
// the simulation exactly once while every waiter gets the same bytes.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/experiments"
)

// The reference fabrics, shared with internal/config's partition
// differential suite: a bridged multi-ring chain, a mesh-of-rings, a
// hub-and-spoke, and the mesh again under a kill-and-repair fault
// schedule with the watchdog armed.
const cacheMultiringSpec = `{
  "name": "diff-multiring",
  "rings": [
    {"name": "r0", "positions": 12, "full": true},
    {"name": "r1", "positions": 12, "full": true},
    {"name": "r2", "positions": 12, "full": true},
    {"name": "r3", "positions": 12, "full": true}
  ],
  "devices": [
    {"name": "c0", "type": "requester", "ring": "r0", "position": 0,
     "outstanding": 8, "rate": 0.8, "readFraction": 0.7, "lineBytes": 64, "targets": ["m3"]},
    {"name": "c1", "type": "requester", "ring": "r1", "position": 2,
     "outstanding": 8, "rate": 0.8, "readFraction": 0.5, "lineBytes": 64, "targets": ["m0", "m3"]},
    {"name": "c2", "type": "requester", "ring": "r2", "position": 4,
     "outstanding": 8, "rate": 0.8, "readFraction": 0.6, "lineBytes": 64, "targets": ["m0"]},
    {"name": "m0", "type": "memory", "ring": "r0", "position": 6,
     "accessCycles": 20, "bytesPerCycle": 64, "queueDepth": 16},
    {"name": "m3", "type": "memory", "ring": "r3", "position": 6,
     "accessCycles": 20, "bytesPerCycle": 64, "queueDepth": 16}
  ],
  "bridges": [
    {"name": "b01", "type": "rbrg-l2",
     "stations": [{"ring": "r0", "position": 11}, {"ring": "r1", "position": 0}]},
    {"name": "b12", "type": "rbrg-l2",
     "stations": [{"ring": "r1", "position": 11}, {"ring": "r2", "position": 0}]},
    {"name": "b23", "type": "rbrg-l2",
     "stations": [{"ring": "r2", "position": 11}, {"ring": "r3", "position": 0}]}
  ]
}`

const cacheMeshSpec = `{
  "name": "diff-mesh",
  "rings": [
    {"name": "v0", "positions": 10, "full": true},
    {"name": "v1", "positions": 10, "full": true},
    {"name": "h0", "positions": 10, "full": true},
    {"name": "h1", "positions": 10, "full": true}
  ],
  "devices": [
    {"name": "c00", "type": "requester", "ring": "v0", "position": 0,
     "outstanding": 6, "rate": 0.9, "readFraction": 0.5, "lineBytes": 128, "targets": ["l20", "l21"]},
    {"name": "c10", "type": "requester", "ring": "v1", "position": 0,
     "outstanding": 6, "rate": 0.9, "readFraction": 0.5, "lineBytes": 128, "targets": ["l21", "l20"]},
    {"name": "l20", "type": "memory", "ring": "h0", "position": 5,
     "accessCycles": 8, "bytesPerCycle": 128, "queueDepth": 32},
    {"name": "l21", "type": "memory", "ring": "h1", "position": 5,
     "accessCycles": 8, "bytesPerCycle": 128, "queueDepth": 32}
  ],
  "bridges": [
    {"name": "x00", "type": "rbrg-l1",
     "stations": [{"ring": "v0", "position": 3}, {"ring": "h0", "position": 0}]},
    {"name": "x01", "type": "rbrg-l1",
     "stations": [{"ring": "v0", "position": 7}, {"ring": "h1", "position": 0}]},
    {"name": "x10", "type": "rbrg-l1",
     "stations": [{"ring": "v1", "position": 3}, {"ring": "h0", "position": 9}]},
    {"name": "x11", "type": "rbrg-l1",
     "stations": [{"ring": "v1", "position": 7}, {"ring": "h1", "position": 9}]}
  ]
}`

const cacheHubSpec = `{
  "name": "diff-hub",
  "rings": [
    {"name": "hub", "positions": 16, "full": true},
    {"name": "s0", "positions": 6, "full": true},
    {"name": "s1", "positions": 6, "full": true},
    {"name": "s2", "positions": 6, "full": true}
  ],
  "devices": [
    {"name": "c0", "type": "requester", "ring": "s0", "position": 2,
     "outstanding": 4, "rate": 0.7, "readFraction": 0.8, "lineBytes": 64, "targets": ["dram"]},
    {"name": "c1", "type": "requester", "ring": "s1", "position": 2,
     "outstanding": 4, "rate": 0.7, "readFraction": 0.4, "lineBytes": 64, "targets": ["dram"]},
    {"name": "c2", "type": "requester", "ring": "s2", "position": 2,
     "outstanding": 4, "rate": 0.7, "readFraction": 0.6, "lineBytes": 64, "targets": ["dram"]},
    {"name": "dram", "type": "memory", "ring": "hub", "position": 8,
     "accessCycles": 40, "bytesPerCycle": 32, "queueDepth": 24}
  ],
  "bridges": [
    {"name": "h0", "type": "rbrg-l2",
     "stations": [{"ring": "hub", "position": 0}, {"ring": "s0", "position": 0}]},
    {"name": "h1", "type": "rbrg-l2",
     "stations": [{"ring": "hub", "position": 5}, {"ring": "s1", "position": 0}]},
    {"name": "h2", "type": "rbrg-l2",
     "stations": [{"ring": "hub", "position": 11}, {"ring": "s2", "position": 0}]}
  ]
}`

const cacheMeshFaultSpec = `{
  "name": "diff-mesh-faults",
  "rings": [
    {"name": "v0", "positions": 10, "full": true},
    {"name": "v1", "positions": 10, "full": true},
    {"name": "h0", "positions": 10, "full": true},
    {"name": "h1", "positions": 10, "full": true}
  ],
  "devices": [
    {"name": "c00", "type": "requester", "ring": "v0", "position": 0,
     "outstanding": 6, "rate": 0.9, "readFraction": 0.5, "lineBytes": 128,
     "retryTimeout": 400, "retryMax": 8, "targets": ["l20", "l21"]},
    {"name": "c10", "type": "requester", "ring": "v1", "position": 0,
     "outstanding": 6, "rate": 0.9, "readFraction": 0.5, "lineBytes": 128,
     "retryTimeout": 400, "retryMax": 8, "targets": ["l21", "l20"]},
    {"name": "l20", "type": "memory", "ring": "h0", "position": 5,
     "accessCycles": 8, "bytesPerCycle": 128, "queueDepth": 32},
    {"name": "l21", "type": "memory", "ring": "h1", "position": 5,
     "accessCycles": 8, "bytesPerCycle": 128, "queueDepth": 32}
  ],
  "bridges": [
    {"name": "x00", "type": "rbrg-l1",
     "stations": [{"ring": "v0", "position": 3}, {"ring": "h0", "position": 0}]},
    {"name": "x01", "type": "rbrg-l1",
     "stations": [{"ring": "v0", "position": 7}, {"ring": "h1", "position": 0}]},
    {"name": "x10", "type": "rbrg-l1",
     "stations": [{"ring": "v1", "position": 3}, {"ring": "h0", "position": 9}]},
    {"name": "x11", "type": "rbrg-l1",
     "stations": [{"ring": "v1", "position": 7}, {"ring": "h1", "position": 9}]}
  ],
  "faults": {
    "watchdogCycles": 600,
    "events": [
      {"at": 400, "kind": "kill-bridge", "bridge": "x00", "repairAt": 1200},
      {"at": 700, "kind": "drop-flit"},
      {"at": 900, "kind": "corrupt-flit"}
    ]
  }
}`

// testStore opens a disk-backed artifact store in a temp dir.
func testStore(t *testing.T) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(artifact.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// submitJob POSTs a job spec and returns its view plus the X-Nocd-Cache
// disposition header.
func submitJob(t *testing.T, base string, body []byte) (jobView, string) {
	t.Helper()
	var v jobView
	resp := doJSON(t, "POST", base+"/jobs", body, &v)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: HTTP %d", resp.StatusCode)
	}
	return v, resp.Header.Get("X-Nocd-Cache")
}

// simBodies fetches all three rendered result bodies for a done sim job.
type simBodies struct{ json, csv, text string }

func fetchBodies(t *testing.T, base, id string) simBodies {
	t.Helper()
	return simBodies{
		json: fetchText(t, base+"/jobs/"+id+"/result?format=json", 200),
		csv:  fetchText(t, base+"/jobs/"+id+"/result?format=csv", 200),
		text: fetchText(t, base+"/jobs/"+id+"/result?format=text", 200),
	}
}

// customBody builds a sim-job submission around a custom config
// document, optionally injecting the behaviour-neutral partitions knob.
func customBody(t *testing.T, configDoc string, cycles, metricsInterval uint64, partitions int) []byte {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(configDoc))
	dec.UseNumber()
	var m map[string]interface{}
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if partitions > 0 {
		m[`partitions`] = json.Number(fmt.Sprint(partitions))
	}
	doc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sim := map[string]interface{}{"topology": "custom", "cycles": cycles, "config": string(doc)}
	if metricsInterval > 0 {
		sim["metrics_interval"] = metricsInterval
	}
	body, err := json.Marshal(map[string]interface{}{"kind": "sim", "sim": sim})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// withSeed rewrites a config document's top-level seed — the smallest
// identity-field change a custom spec admits.
func withSeed(t *testing.T, configDoc string, seed uint64) string {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(configDoc), &m); err != nil {
		t.Fatal(err)
	}
	m["seed"] = json.Number(fmt.Sprint(seed))
	doc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// TestCacheDifferentialByteIdentity is the tentpole differential suite:
// for each reference fabric, cold vs warm bodies are compared byte for
// byte across every format, an identity-excluded variant (partition
// hint at 4 vs 1, or checkpoint cadence) must hit, and a seed change
// must miss.
func TestCacheDifferentialByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		// cold and excluded must share a content address; seeded must not.
		cold, excluded, seeded []byte
	}{
		{
			name:     "ai-processor",
			cold:     []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":2000,"metrics_interval":500}}`),
			excluded: []byte(`{"sim":{"metrics_interval":500,"cycles":2000,"checkpoint_every":256,"topology":"ai-processor","scale":"quick"}}`),
			seeded:   []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":2000,"metrics_interval":500,"seed":99}}`),
		},
		{
			name:     "server-cpu",
			cold:     []byte(`{"kind":"sim","sim":{"topology":"server-cpu","cycles":2000}}`),
			excluded: []byte(`{"kind":"sim","sim":{"topology":"server-cpu","cycles":2000,"checkpoint_every":512}}`),
			seeded:   []byte(`{"kind":"sim","sim":{"topology":"server-cpu","cycles":2000,"seed":99}}`),
		},
		{
			name:     "multiring",
			cold:     customBody(t, cacheMultiringSpec, 2000, 500, 1),
			excluded: customBody(t, cacheMultiringSpec, 2000, 500, 4),
			seeded:   customBody(t, withSeed(t, cacheMultiringSpec, 99), 2000, 500, 1),
		},
		{
			name:     "mesh",
			cold:     customBody(t, cacheMeshSpec, 2000, 0, 1),
			excluded: customBody(t, cacheMeshSpec, 2000, 0, 4),
			seeded:   customBody(t, withSeed(t, cacheMeshSpec, 99), 2000, 0, 1),
		},
		{
			name:     "hub",
			cold:     customBody(t, cacheHubSpec, 2000, 0, 1),
			excluded: customBody(t, cacheHubSpec, 2000, 0, 4),
			seeded:   customBody(t, withSeed(t, cacheHubSpec, 99), 2000, 0, 1),
		},
		{
			// Fault schedules run mid-suite repair with the watchdog armed;
			// 1500 cycles covers kill (400) through repair (1200).
			name:     "mesh-with-faults",
			cold:     customBody(t, cacheMeshFaultSpec, 1500, 0, 1),
			excluded: customBody(t, cacheMeshFaultSpec, 1500, 0, 4),
			seeded:   customBody(t, withSeed(t, cacheMeshFaultSpec, 99), 1500, 0, 1),
		},
	}

	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold, disp := submitJob(t, ts.URL, tc.cold)
			if disp != "miss" {
				t.Fatalf("cold submission dispositioned %q, want miss", disp)
			}
			waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
			coldBodies := fetchBodies(t, ts.URL, cold.ID)

			// Warm: the identical spec must be answered from the cache,
			// born done, byte-identical in every format.
			warm, disp := submitJob(t, ts.URL, tc.cold)
			if disp != "hit" || !warm.Cached || warm.Status != StatusDone {
				t.Fatalf("warm submission = %+v disposition %q, want an instant cached hit", warm, disp)
			}
			warmBodies := fetchBodies(t, ts.URL, warm.ID)
			if warmBodies != coldBodies {
				t.Fatalf("warm bodies differ from cold:\ncold %+v\nwarm %+v", coldBodies, warmBodies)
			}

			// Identity-excluded variant: hits, and every format that does
			// not echo the spec is byte-identical; the JSON result differs
			// only in its spec echo.
			vrt, disp := submitJob(t, ts.URL, tc.excluded)
			if disp != "hit" || !vrt.Cached {
				t.Fatalf("identity-excluded variant dispositioned %q (cached=%v), want hit", disp, vrt.Cached)
			}
			vrtBodies := fetchBodies(t, ts.URL, vrt.ID)
			if vrtBodies.csv != coldBodies.csv || vrtBodies.text != coldBodies.text {
				t.Fatalf("variant CSV/text differ from cold:\ncold %+v\nvariant %+v", coldBodies, vrtBodies)
			}
			var coldRes, vrtRes experiments.SimResult
			if err := json.Unmarshal([]byte(coldBodies.json), &coldRes); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(vrtBodies.json), &vrtRes); err != nil {
				t.Fatal(err)
			}
			coldRes.Spec, vrtRes.Spec = experiments.SimSpec{}, experiments.SimSpec{}
			if !reflect.DeepEqual(coldRes, vrtRes) {
				t.Fatalf("variant result differs beyond the spec echo:\ncold %+v\nvariant %+v", coldRes, vrtRes)
			}

			// Identity change: a different seed must miss. Cancel it —
			// this test only cares about admission, not the run.
			seeded, disp := submitJob(t, ts.URL, tc.seeded)
			if disp != "miss" || seeded.Cached {
				t.Fatalf("seed change dispositioned %q (cached=%v), want miss", disp, seeded.Cached)
			}
			doJSON(t, "DELETE", ts.URL+"/jobs/"+seeded.ID, nil, nil)
		})
	}
}

// TestCacheServedResultMatchesFreshRun closes the loop the differential
// suite argues by composition: a cached body served for a spec that
// differs in the partition hint is byte-identical to actually RUNNING
// that spec — not just to the cold run that populated the cache.
func TestCacheServedResultMatchesFreshRun(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()
	cold, disp := submitJob(t, ts.URL, customBody(t, cacheMeshSpec, 2000, 300, 1))
	if disp != "miss" {
		t.Fatalf("cold disposition %q", disp)
	}
	waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })

	warmAt4 := customBody(t, cacheMeshSpec, 2000, 300, 4)
	warm, disp := submitJob(t, ts.URL, warmAt4)
	if disp != "hit" {
		t.Fatalf("partition-hint variant disposition %q, want hit", disp)
	}
	cachedBodies := fetchBodies(t, ts.URL, warm.ID)

	// An uncached server runs the exact same 4-partition spec for real.
	s2, ts2 := testServer(t, Config{})
	defer s2.Shutdown()
	fresh, _ := submitJob(t, ts2.URL, warmAt4)
	waitFor(t, ts2.URL, fresh.ID, func(st JobStatus) bool { return st == StatusDone })
	freshBodies := fetchBodies(t, ts2.URL, fresh.ID)
	if cachedBodies != freshBodies {
		t.Fatalf("cached bodies differ from a fresh run of the same spec:\ncached %+v\nfresh %+v", cachedBodies, freshBodies)
	}
}

// gateFlights plugs every flight at the top of its execution until the
// returned release func runs — the deterministic way to hold a run open
// while the test stages coalescing or cancellation around it. Cleanup
// opens the gate, drains the server (Shutdown is idempotent) and only
// then clears the hook, so no live worker races the unhooking.
func gateFlights(t *testing.T, s *Server) func() {
	t.Helper()
	gate := make(chan struct{})
	testPanicHook = func(*Job) { <-gate }
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		s.Shutdown()
		testPanicHook = nil
	})
	return release
}

// TestConcurrentIdenticalSubmitsRunOnce: N concurrent identical
// submissions must coalesce into exactly one simulation, and every
// waiter must receive byte-identical bodies. Run under -race in CI.
func TestConcurrentIdenticalSubmitsRunOnce(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t), Workers: 2})
	release := gateFlights(t, s)
	var runs int32
	var runsMu sync.Mutex
	testRunHook = func() { runsMu.Lock(); runs++; runsMu.Unlock() }
	defer func() { testRunHook = nil }()

	const n = 8
	body := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)
	views := make([]jobView, n)
	disps := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// No t.Fatal off the test goroutine: record and check after.
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			disps[i] = resp.Header.Get("X-Nocd-Cache")
			errs[i] = json.NewDecoder(resp.Body).Decode(&views[i])
		}(i)
	}
	wg.Wait()
	release()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	misses, coalesced := 0, 0
	for _, d := range disps {
		switch d {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("unexpected disposition %q (all submissions raced the gated run)", d)
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("dispositions = %v, want exactly 1 miss and %d coalesced", disps, n-1)
	}

	var first simBodies
	for i, v := range views {
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
		bodies := fetchBodies(t, ts.URL, v.ID)
		if i == 0 {
			first = bodies
			continue
		}
		if bodies != first {
			t.Fatalf("submission %d got different bytes:\nfirst %+v\n got  %+v", i, first, bodies)
		}
	}
	runsMu.Lock()
	got := runs
	runsMu.Unlock()
	if got != 1 {
		t.Fatalf("%d simulations ran for %d identical submissions, want exactly 1", got, n)
	}
}

// TestCoalescedCancelIsolation: canceling one coalesced member detaches
// it immediately and must not cancel — or even perturb — the shared run;
// canceling the LAST member stops the run itself.
func TestCoalescedCancelIsolation(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t), Workers: 1})
	release := gateFlights(t, s)

	body := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)
	a, _ := submitJob(t, ts.URL, body)
	waitFor(t, ts.URL, a.ID, func(st JobStatus) bool { return st == StatusRunning })
	b, disp := submitJob(t, ts.URL, body)
	if disp != "coalesced" {
		t.Fatalf("second submission dispositioned %q, want coalesced", disp)
	}

	var bView jobView
	doJSON(t, "DELETE", ts.URL+"/jobs/"+b.ID, nil, &bView)
	if bView.Status != StatusCanceled {
		t.Fatalf("coalesced member is %s after cancel, want canceled immediately", bView.Status)
	}
	release()

	// The survivor completes with a real result; the canceled member
	// stays canceled and serves nothing.
	got := waitFor(t, ts.URL, a.ID, func(st JobStatus) bool { return st == StatusDone })
	if got.Status != StatusDone {
		t.Fatalf("survivor ended %s", got.Status)
	}
	fetchBodies(t, ts.URL, a.ID)
	fetchText(t, ts.URL+"/jobs/"+b.ID+"/result", http.StatusConflict)

	// Last-member cancel: a fresh spec, canceled mid-run, must stop.
	release2 := gateFlights(t, s)
	c, _ := submitJob(t, ts.URL, []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500,"seed":5}}`))
	waitFor(t, ts.URL, c.ID, func(st JobStatus) bool { return st == StatusRunning })
	doJSON(t, "DELETE", ts.URL+"/jobs/"+c.ID, nil, nil)
	release2()
	waitFor(t, ts.URL, c.ID, func(st JobStatus) bool { return st == StatusCanceled })
}

// TestCacheSurvivesRestart: a store reopened over the same directory
// serves the previous daemon's results from the disk tier, byte for
// byte — the in-process version of the CI e2e-cache restart flow.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"kind":"sim","sim":{"topology":"server-cpu","cycles":1500}}`)

	store1, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Config{Cache: store1})
	cold, _ := submitJob(t, ts1.URL, body)
	waitFor(t, ts1.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
	coldBodies := fetchBodies(t, ts1.URL, cold.ID)
	s1.Shutdown()

	store2, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{Cache: store2})
	defer s2.Shutdown()
	warm, disp := submitJob(t, ts2.URL, body)
	if disp != "hit" || !warm.Cached {
		t.Fatalf("restarted daemon dispositioned %q (cached=%v), want a disk-tier hit", disp, warm.Cached)
	}
	if warmBodies := fetchBodies(t, ts2.URL, warm.ID); warmBodies != coldBodies {
		t.Fatalf("disk-tier bodies differ:\ncold %+v\nwarm %+v", coldBodies, warmBodies)
	}
}

// TestExperimentJobsAreCached: the experiment kind memoizes too, and a
// cached artifact serves every format byte-identically.
func TestExperimentJobsAreCached(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()
	body := []byte(`{"kind":"experiment","experiment":"table5","scale":"quick"}`)
	cold, disp := submitJob(t, ts.URL, body)
	if disp != "miss" {
		t.Fatalf("cold experiment dispositioned %q", disp)
	}
	waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
	coldJSON := fetchText(t, ts.URL+"/jobs/"+cold.ID+"/result?format=json", 200)
	coldText := fetchText(t, ts.URL+"/jobs/"+cold.ID+"/result?format=text", 200)

	warm, disp := submitJob(t, ts.URL, body)
	if disp != "hit" || warm.Status != StatusDone {
		t.Fatalf("warm experiment = %+v disposition %q", warm, disp)
	}
	if got := fetchText(t, ts.URL+"/jobs/"+warm.ID+"/result?format=json", 200); got != coldJSON {
		t.Fatal("cached experiment JSON differs")
	}
	if got := fetchText(t, ts.URL+"/jobs/"+warm.ID+"/result?format=text", 200); got != coldText {
		t.Fatal("cached experiment text differs")
	}
}

// TestCoalescingDoesNotDefeatBackpressure: distinct specs still fill the
// queue to a 429, while an identical spec coalesces instead of being
// rejected — even when the queue is full.
func TestCoalescingDoesNotDefeatBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t), QueueDepth: 1, Workers: 1})
	gateFlights(t, s)

	submit := func(seed int) (*http.Response, jobView) {
		var v jobView
		body := []byte(fmt.Sprintf(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500,"seed":%d}}`, seed))
		resp := doJSON(t, "POST", ts.URL+"/jobs", body, &v)
		return resp, v
	}
	// Seed 1 occupies the (gated) worker; seed 2 fills the depth-1 queue.
	first, v1 := submit(1)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d", first.StatusCode)
	}
	waitFor(t, ts.URL, v1.ID, func(st JobStatus) bool { return st == StatusRunning })
	if resp, _ := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: HTTP %d", resp.StatusCode)
	}
	// A third distinct spec must bounce with Retry-After...
	resp, _ := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("distinct spec on a full queue: HTTP %d (Retry-After %q), want 429",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// ...but resubmitting an already-admitted spec coalesces, full queue
	// or not: it needs no queue slot.
	resp2, v := submit(2)
	if resp2.StatusCode != http.StatusAccepted || !v.Coalesced {
		t.Fatalf("identical spec on a full queue: HTTP %d (coalesced=%v), want coalesced 202",
			resp2.StatusCode, v.Coalesced)
	}
}

// TestWarmHitLatency is the acceptance floor: serving ref/ai-processor
// from the cache must be at least 100x faster than simulating it. The
// cold run is a single measurement, the warm side takes the best of 50
// full POST+result round trips — the comparison a client actually feels.
func TestWarmHitLatency(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()
	body := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":60000}}`)

	coldStart := time.Now()
	cold, disp := submitJob(t, ts.URL, body)
	if disp != "miss" {
		t.Fatalf("cold disposition %q", disp)
	}
	waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
	coldDur := time.Since(coldStart)

	warmBest := time.Duration(1 << 62)
	for i := 0; i < 50; i++ {
		start := time.Now()
		warm, disp := submitJob(t, ts.URL, body)
		if disp != "hit" || warm.Status != StatusDone {
			t.Fatalf("iteration %d: disposition %q status %s", i, disp, warm.Status)
		}
		fetchText(t, ts.URL+"/jobs/"+warm.ID+"/result?format=csv", 200)
		if d := time.Since(start); d < warmBest {
			warmBest = d
		}
	}
	if coldDur < 100*warmBest {
		t.Fatalf("warm hit %v is only %.1fx faster than the %v cold run, want >= 100x",
			warmBest, float64(coldDur)/float64(warmBest), coldDur)
	}
	t.Logf("cold %v, best warm %v (%.0fx)", coldDur, warmBest, float64(coldDur)/float64(warmBest))
}

// TestCoalesceOntoRunningFlight: submissions that coalesce onto a flight
// a worker is already executing append to the flight's member list under
// s.mu while the runner is past its locked prologue. The runners used to
// re-read the lead from that list without the lock; they now receive the
// *Job the dispatcher read under it. The run hook reports the flight as
// running and then dawdles, so the late members attach after the runner
// would have read the list with no happens-before edge between the two —
// the ordering the race detector needs to see (CI runs this under -race),
// for each of the three runners.
func TestCoalesceOntoRunningFlight(t *testing.T) {
	defer func() { testRunHook = nil }()
	for _, body := range []string{
		`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`,
		`{"experiment":"area","scale":"quick"}`,
		servingBody,
	} {
		s, ts := testServer(t, Config{Cache: testStore(t), Workers: 1})
		running := make(chan struct{}, 1)
		testRunHook = func() {
			running <- struct{}{}
			time.Sleep(50 * time.Millisecond)
		}
		first, disp := submitJob(t, ts.URL, []byte(body))
		if disp != "miss" {
			t.Fatalf("%s: first submission disposition %q, want miss", body, disp)
		}
		<-running
		ids := []string{first.ID}
		for i := 0; i < 3; i++ {
			v, disp := submitJob(t, ts.URL, []byte(body))
			if disp != "coalesced" {
				t.Fatalf("%s: submission onto the running flight was %q, want coalesced", body, disp)
			}
			ids = append(ids, v.ID)
		}
		var want string
		for i, id := range ids {
			waitFor(t, ts.URL, id, func(st JobStatus) bool { return st == StatusDone })
			got := fetchText(t, ts.URL+"/jobs/"+id+"/result?format=text", 200)
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: member %s got a different result than the lead", body, id)
			}
		}
		s.Shutdown()
	}
}
