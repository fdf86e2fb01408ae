// Serving-job coverage: the daemon must memoize an open-loop sweep under
// a content address of its canonical document, which drops the accepted,
// inert partitions and lookahead keys. cmd/experiments' TestDaemonMatchesCLI
// holds it byte-identical to the CLI.
package server

import (
	"strings"
	"testing"
)

// servingBody is a small two-point sweep that runs in well under a
// second — big enough to exercise MoE traffic, small enough for CI.
const servingBody = `{"kind":"serving","serving":{"seed":9,"loads":[4,64],"cycles":4000}}`

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

	// Partitions and lookahead are accepted and do nothing: they must not
	// split the cache, and normalization drops them, so the answer is the
	// cold run's, byte-for-byte, echoing neither key.
	knobs := `{"kind":"serving","serving":{"seed":9,"loads":[4,64],"cycles":4000,"partitions":2,"lookahead":8}}`
	tuned, disp := submitJob(t, ts.URL, []byte(knobs))
	if disp != "hit" {
		t.Fatalf("partitions/lookahead submission disposition %q, want hit", disp)
	}
	if got := fetchBodies(t, ts.URL, tuned.ID); got != coldBodies {
		t.Fatal("knob-tuned cached bodies differ from the cold run")
	}
	if strings.Contains(coldBodies.json, "partitions") || strings.Contains(coldBodies.json, "lookahead") {
		t.Errorf("result echoes an inert key: %s", coldBodies.json)
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
