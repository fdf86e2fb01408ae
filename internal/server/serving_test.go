// Serving-job coverage: the daemon must serve an open-loop sweep
// byte-identically to the CLI's direct run path, memoize it under a
// content address that ignores the accepted, inert partitions and
// lookahead keys, and echo each submission's own canonical document.
package server

import (
	"strings"
	"testing"

	"chipletnoc/internal/experiments"
)

// servingBody is a small two-point sweep that runs in well under a
// second — big enough to exercise MoE traffic, small enough for CI.
const servingBody = `{"kind":"serving","serving":{"seed":9,"loads":[4,64],"cycles":4000}}`

// TestServerServingJobMatchesCLI: a serving job served over HTTP must
// render byte-identically to RunServingDoc — the CLI's code path.
func TestServerServingJobMatchesCLI(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()

	v, _ := submitJob(t, ts.URL, []byte(servingBody))
	waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })

	want, err := experiments.RunServingDoc(`{"seed":9,"loads":[4,64],"cycles":4000}`, experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=csv", 200); got != want.CSV() {
		t.Fatalf("service CSV differs from CLI:\nservice:\n%s\ncli:\n%s", got, want.CSV())
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=text", 200); got != want.Render() {
		t.Fatalf("service text differs from CLI")
	}
	var res experiments.ServingResult
	doJSON(t, "GET", ts.URL+"/jobs/"+v.ID+"/result", nil, &res)
	if len(res.Points) != 2 || res.Doc == "" {
		t.Fatalf("JSON result malformed: %d points, doc %q", len(res.Points), res.Doc)
	}
	for i, p := range res.Points {
		if p.Digest != want.Points[i].Digest {
			t.Errorf("point %d digest %s differs from CLI %s", i, p.Digest, want.Points[i].Digest)
		}
	}
}

// TestServingJobsAreCached: a resubmitted serving sweep answers from
// the store without running, with byte-identical bodies — and a
// submission differing only in partitions/lookahead still hits.
func TestServingJobsAreCached(t *testing.T) {
	ran := 0
	testRunHook = func() { ran++ }
	defer func() { testRunHook = nil }()

	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()

	cold, disp := submitJob(t, ts.URL, []byte(servingBody))
	if disp != "miss" {
		t.Fatalf("cold submission disposition %q, want miss", disp)
	}
	waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
	coldBodies := fetchBodies(t, ts.URL, cold.ID)

	warm, disp := submitJob(t, ts.URL, []byte(servingBody))
	if disp != "hit" {
		t.Fatalf("warm submission disposition %q, want hit", disp)
	}
	if !warm.Cached || warm.Status != StatusDone {
		t.Fatalf("warm job not born done+cached: %+v", warm)
	}
	if warmBodies := fetchBodies(t, ts.URL, warm.ID); warmBodies != coldBodies {
		t.Fatal("cached serving bodies differ from the cold run")
	}

	// Partitions and lookahead are accepted and do nothing, so they must
	// not split the cache.
	knobs := `{"kind":"serving","serving":{"seed":9,"loads":[4,64],"cycles":4000,"partitions":2,"lookahead":8}}`
	tuned, disp := submitJob(t, ts.URL, []byte(knobs))
	if disp != "hit" {
		t.Fatalf("partitions/lookahead submission disposition %q, want hit", disp)
	}
	// The echoed doc must be the tuned submission's own, not the cold
	// run's: identity-excluded knobs reflect what was submitted.
	var res experiments.ServingResult
	doJSON(t, "GET", ts.URL+"/jobs/"+tuned.ID+"/result", nil, &res)
	if !strings.Contains(res.Doc, `"partitions":2`) {
		t.Errorf("cached result does not echo the submission's partitions knob: %s", res.Doc)
	}
	// And the rows themselves are the cached ones, byte-for-byte.
	if got := fetchText(t, ts.URL+"/jobs/"+tuned.ID+"/result?format=csv", 200); got != coldBodies.csv {
		t.Fatal("knob-tuned cached CSV differs from the cold run")
	}

	if ran != 1 {
		t.Fatalf("%d sweeps ran, want exactly 1 (everything else cached)", ran)
	}

	// A different seed is a different identity: it must run, not hit.
	reseeded := `{"kind":"serving","serving":{"seed":10,"loads":[4,64],"cycles":4000}}`
	if _, disp := submitJob(t, ts.URL, []byte(reseeded)); disp != "miss" {
		t.Fatalf("reseeded submission disposition %q, want miss", disp)
	}
}

// TestJobKeyServing pins the serving identity rules at the key level.
func TestJobKeyServing(t *testing.T) {
	key := func(doc string) string {
		t.Helper()
		k, err := JobKey(JobSpec{Kind: "serving", Serving: []byte(doc)})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(`{"seed":9,"loads":[4,64]}`)
	if key(`{"loads":[4,64],"seed":9}`) != base {
		t.Error("JSON field order split the serving cache key")
	}
	if key(`{"seed":9,"loads":[4,64],"partitions":4,"lookahead":16}`) != base {
		t.Error("inert partitions/lookahead keys split the serving cache key")
	}
	if key(`{"seed":10,"loads":[4,64]}`) == base {
		t.Error("different seed produced the same serving cache key")
	}
	if key(`{"seed":9,"loads":[4,64],"arrival":{"process":"bursty"}}`) == base {
		t.Error("different arrival process produced the same serving cache key")
	}
	// Scale is excluded: once the doc is canonical it fully determines
	// the sweep, so quick/full spellings of the same doc share a key.
	full, err := JobKey(JobSpec{Kind: "serving", Scale: "full", Serving: []byte(`{"seed":9,"loads":[4,64],"cycles":4000}`)})
	if err != nil {
		t.Fatal(err)
	}
	if quick := key(`{"seed":9,"loads":[4,64],"cycles":4000}`); full != quick {
		t.Error("scale split the cache for fully-specified serving docs")
	}
}

// TestParseJobSpecServing covers the serving kind's admission rules.
func TestParseJobSpecServing(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"serving":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "serving" || spec.Scale != "quick" {
		t.Errorf("kind=%q scale=%q; want serving/quick inferred", spec.Kind, spec.Scale)
	}
	if !strings.Contains(string(spec.Serving), `"loads"`) {
		t.Errorf("serving doc not canonicalized: %s", spec.Serving)
	}
	// Normalization is idempotent: renormalizing the canonical spec is a
	// fixed point (what keeps recovered jobs' identities stable).
	again, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Serving) != string(spec.Serving) {
		t.Error("serving normalization is not idempotent")
	}
	for _, bad := range []string{
		`{"kind":"serving","sim":{}}`,
		`{"kind":"serving","experiment":"fig11"}`,
		`{"kind":"sim","serving":{}}`,
		`{"kind":"experiment","experiment":"fig11","serving":{}}`,
		`{"kind":"serving","serving":{"loads":[0]}}`,
		`{"kind":"serving","serving":{"bogus":1}}`,
	} {
		if _, err := ParseJobSpec([]byte(bad)); err == nil {
			t.Errorf("accepted invalid submission %s", bad)
		}
	}
}
