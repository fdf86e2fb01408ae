package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"chipletnoc/internal/experiments"
)

// mustKey hashes a spec or fails the test.
func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	key, err := JobKey(spec)
	if err != nil {
		t.Fatalf("JobKey(%+v): %v", spec, err)
	}
	return key
}

func simJob(mut func(*experiments.SimSpec)) JobSpec {
	s := &experiments.SimSpec{Topology: "ai-processor"}
	if mut != nil {
		mut(s)
	}
	return JobSpec{Kind: "sim", Sim: s}
}

// TestJobKeyIdentityFields is the identity contract, field by field:
// everything that changes a result changes the key, and the
// behaviour-neutral checkpoint cadence does not.
func TestJobKeyIdentityFields(t *testing.T) {
	base := mustKey(t, simJob(nil))

	sameKey := map[string]JobSpec{
		"defaults spelled out": simJob(func(s *experiments.SimSpec) {
			s.Scale = "quick"
			s.Cycles = 3000
		}),
		"kind defaulted":     {Sim: &experiments.SimSpec{Topology: "ai-processor"}},
		"topology defaulted": {},
		"checkpoint cadence": simJob(func(s *experiments.SimSpec) { s.CheckpointEvery = 512 }),
	}
	for name, spec := range sameKey {
		if got := mustKey(t, spec); got != base {
			t.Errorf("%s: key %s != base %s (identity-excluded field split the cache)", name, got, base)
		}
	}

	differKey := map[string]JobSpec{
		"topology":        simJob(func(s *experiments.SimSpec) { s.Topology = "server-cpu" }),
		"scale":           simJob(func(s *experiments.SimSpec) { s.Scale = "full" }),
		"cycles":          simJob(func(s *experiments.SimSpec) { s.Cycles = 3001 }),
		"seed":            simJob(func(s *experiments.SimSpec) { s.Seed = 7 }),
		"metrics":         simJob(func(s *experiments.SimSpec) { s.MetricsInterval = 100 }),
		"experiment kind": {Kind: "experiment", Experiment: "table5"},
	}
	seen := map[string]string{base: "base"}
	for name, spec := range differKey {
		got := mustKey(t, spec)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: key collides with %s (%s)", name, prev, got)
		}
		seen[got] = name
	}
}

// TestJobKeyCustomConfig pins the config-document rules: key order and
// whitespace are invisible, the embedded partitions hint is invisible,
// and the embedded seed is identity.
func TestJobKeyCustomConfig(t *testing.T) {
	custom := func(doc string) JobSpec {
		return JobSpec{Kind: "sim", Sim: &experiments.SimSpec{Topology: "custom", Config: doc}}
	}
	const doc = `{
	  "name": "two-node",
	  "rings": [{"name": "r", "positions": 4}],
	  "devices": [
	    {"name": "c", "type": "requester", "ring": "r", "position": 0,
	     "outstanding": 4, "rate": 1.0, "readFraction": 0.5, "targets": ["m"]},
	    {"name": "m", "type": "memory", "ring": "r", "position": 2,
	     "accessCycles": 20, "bytesPerCycle": 64, "queueDepth": 8}
	  ]
	}`
	base := mustKey(t, custom(doc))

	// Re-render the document with a different key order and spacing.
	var v map[string]interface{}
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	reordered, _ := json.MarshalIndent(v, "  ", "    ")
	if got := mustKey(t, custom(string(reordered))); got != base {
		t.Errorf("reordered config changed the key: %s != %s", got, base)
	}

	// The partitions hint inside the document is identity-excluded.
	v["partitions"] = json.Number("4")
	withParts, _ := json.Marshal(v)
	if got := mustKey(t, custom(string(withParts))); got != base {
		t.Errorf("config partitions hint changed the key: %s != %s", got, base)
	}

	// The seed inside the document is identity.
	delete(v, "partitions")
	v["seed"] = json.Number("12345")
	withSeed, _ := json.Marshal(v)
	if got := mustKey(t, custom(string(withSeed))); got == base {
		t.Error("config seed did not change the key")
	}
}

func TestJobKeyExperiment(t *testing.T) {
	quick := mustKey(t, JobSpec{Kind: "experiment", Experiment: "table7+fig14+table8"})
	// Scale defaults to quick; kind is inferred; aliases resolve to the
	// same canonical name, so all three share one cache entry.
	if got := mustKey(t, JobSpec{Experiment: "table7+fig14+table8", Scale: "quick"}); got != quick {
		t.Errorf("defaulted experiment scale split the cache: %s != %s", got, quick)
	}
	if got := mustKey(t, JobSpec{Experiment: "fig14"}); got != quick {
		t.Errorf("experiment alias split the cache: %s != %s", got, quick)
	}
	if got := mustKey(t, JobSpec{Kind: "experiment", Experiment: "table7+fig14+table8", Scale: "full"}); got == quick {
		t.Error("experiment scale is not part of the identity")
	}
	if got := mustKey(t, JobSpec{Kind: "experiment", Experiment: "table5"}); got == quick {
		t.Error("experiment name is not part of the identity")
	}
}

func TestCachedResultCodec(t *testing.T) {
	spec, err := (experiments.SimSpec{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res := &experiments.SimResult{Spec: spec, LatencyFNV: "deadbeef", Delivered: 42}
	payload, err := (&Result{Kind: "sim", Sim: res}).encode()
	if err != nil {
		t.Fatal(err)
	}

	// Round trip, with the spec echo patched to the submission's own —
	// in a copy: the decoded result is shared by every job it serves.
	simKind := kinds["sim"]
	decoded, err := decodeAs(simKind, payload)
	if err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	patched := spec
	patched.CheckpointEvery = 999
	got := simKind.echo(decoded, &JobSpec{Kind: "sim", Sim: &patched}).Sim
	if got.Spec != patched {
		t.Fatalf("spec echo not patched: %+v", got.Spec)
	}
	if got.LatencyFNV != res.LatencyFNV || got.Delivered != res.Delivered {
		t.Fatalf("payload mangled in round trip: %+v", got)
	}
	if decoded.Sim.Spec != spec {
		t.Fatalf("echo wrote through to the shared decoded result: %+v", decoded.Sim.Spec)
	}

	// Shape violations are errors at both ends, never silent.
	if _, err := (&Result{Kind: "sim"}).encode(); err == nil {
		t.Error("encoded a sim payload with no result")
	}
	if _, err := (&Result{Kind: "experiment", Sim: res}).encode(); err == nil {
		t.Error("encoded an experiment payload carrying a sim result")
	}
	if _, err := (&Result{Kind: "sim", Sim: res, Artifact: &experiments.Artifact{Name: "x"}}).encode(); err == nil {
		t.Error("encoded a sim payload with a second slot filled")
	}
	for _, bad := range []string{"", "{", `{"kind":"sim"}`, `{"kind":"mystery"}`, `[1,2]`,
		`{"kind":"sim","sim":{},"artifact":{}}`} {
		if _, err := DecodeCachedResult([]byte(bad)); err == nil {
			t.Errorf("decoded malformed payload %q", bad)
		}
	}
	// A well-formed payload of another kind is no use to this one.
	expPayload, err := (&Result{Kind: "experiment", Artifact: &experiments.Artifact{Name: "x"}}).encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCachedResult(expPayload); err != nil {
		t.Errorf("valid experiment payload rejected: %v", err)
	}
	if _, err := decodeAs(simKind, expPayload); err == nil {
		t.Error("experiment payload served as a sim result")
	}
}

// TestRunCached drives the CLI's way into the seam: same keys and
// payloads as the daemon (so the two share a directory), the caller's
// own spec echoed on a hit, an undecodable entry evicted and rerun, and
// an invalid spec reported with the run's own error.
func TestRunCached(t *testing.T) {
	store := testStore(t)
	var lines []string
	logf := func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }
	took := func() string {
		out := strings.Join(lines, " | ")
		lines = nil
		return out
	}
	sim := func(mut func(*experiments.SimSpec)) JobSpec {
		s := &experiments.SimSpec{Cycles: 1500}
		if mut != nil {
			mut(s)
		}
		return JobSpec{Kind: "sim", Sim: s}
	}
	key := mustKey(t, sim(nil))

	cold, err := RunCached(store, sim(nil), nil, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := took(); !strings.HasPrefix(got, "miss "+key[:12]+" | stored "+key[:12]+" (") {
		t.Errorf("cold run logged %q, want a miss then a store of %s", got, key[:12])
	}

	warm, err := RunCached(store, sim(func(s *experiments.SimSpec) { s.CheckpointEvery = 256 }), nil, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := took(); got != "hit "+key[:12]+" — serving stored result" {
		t.Errorf("warm run logged %q, want a hit", got)
	}
	if warm.Sim.Spec.CheckpointEvery != 256 || warm.Sim.CSV() != cold.Sim.CSV() {
		t.Errorf("hit does not echo the caller's spec over the stored rows: %+v", warm.Sim)
	}

	// The daemon answers the same spec from the entry the CLI stored.
	s, ts := testServer(t, Config{Cache: store})
	defer s.Shutdown()
	v, disp := submitJob(t, ts.URL, []byte(`{"sim":{"cycles":1500}}`))
	if disp != "hit" {
		t.Fatalf("daemon dispositioned the CLI-stored spec %q, want hit", disp)
	}
	if got := fetchText(t, ts.URL+"/jobs/"+v.ID+"/result?format=csv", http.StatusOK); got != cold.Sim.CSV() {
		t.Error("daemon served different rows than the CLI stored")
	}

	// A well-formed payload of the wrong kind under the key: evicted,
	// rerun, stored again — by the CLI and by the daemon alike.
	foreign, err := (&Result{Kind: "experiment", Artifact: &experiments.Artifact{Name: "x"}}).encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, viaDaemon := range []bool{false, true} {
		if err := store.Put(key, foreign); err != nil {
			t.Fatal(err)
		}
		if viaDaemon {
			v, disp := submitJob(t, ts.URL, []byte(`{"sim":{"cycles":1500}}`))
			if disp != "miss" {
				t.Fatalf("daemon dispositioned a foreign payload %q, want miss", disp)
			}
			waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
		} else {
			if _, err := RunCached(store, sim(nil), nil, nil, logf); err != nil {
				t.Fatal(err)
			}
			if got := took(); !strings.HasPrefix(got, "evicted undecodable entry "+key[:12]+": ") || !strings.Contains(got, " | stored ") {
				t.Errorf("foreign payload logged %q, want an eviction then a store", got)
			}
		}
		payload, ok := store.Get(key)
		if !ok {
			t.Fatalf("viaDaemon=%v: nothing stored after the rerun", viaDaemon)
		}
		if _, err := decodeAs(kinds["sim"], payload); err != nil {
			t.Errorf("viaDaemon=%v: rerun stored an unusable payload: %v", viaDaemon, err)
		}
	}

	// An invalid spec runs anyway and fails with RunSim's own words;
	// without a store nothing is looked up or logged.
	_, err = RunCached(store, sim(func(s *experiments.SimSpec) { s.Topology = "mesh" }), nil, nil, logf)
	if err == nil || !strings.HasPrefix(err.Error(), "unknown topology") || took() != "" {
		t.Errorf("invalid spec: err %v, log %q; want the run's unwrapped error and no cache chatter", err, lines)
	}
	if _, err := RunCached(nil, sim(nil), nil, nil, logf); err != nil || took() != "" {
		t.Errorf("no store: err %v, log %q", err, lines)
	}
}

// FuzzNormalizeSpec hammers the three invariants that make content
// addressing sound for arbitrary submissions: normalization is
// idempotent, the key survives a marshal/parse round trip, and the key
// is invariant under JSON re-rendering (key order, whitespace).
func FuzzNormalizeSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"sim"}`))
	f.Add([]byte(`{"sim":{"topology":"server-cpu","cycles":123,"seed":9}}`))
	f.Add([]byte(`{"sim":{"seed":18446744073709551615}}`))
	f.Add([]byte(`{"sim":{"checkpoint_every":64,"metrics_interval":10}}`))
	f.Add([]byte(`{"experiment":"table5","scale":"full"}`))
	f.Add([]byte(`{"sim":{"topology":"custom","config":"{\"name\":\"n\",\"rings\":[{\"name\":\"r\",\"positions\":4}],\"devices\":[{\"name\":\"c\",\"type\":\"requester\",\"ring\":\"r\",\"position\":0,\"outstanding\":1,\"rate\":0.5,\"readFraction\":0.5,\"targets\":[\"m\"]},{\"name\":\"m\",\"type\":\"memory\",\"ring\":\"r\",\"position\":1,\"accessCycles\":10,\"bytesPerCycle\":32,\"queueDepth\":4}],\"partitions\":2}"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		js, err := ParseJobSpec(data)
		if err != nil {
			return // invalid submissions just need to not panic
		}
		// Idempotence: normalizing a normalized spec is the identity.
		again, err := js.Normalize()
		if err != nil {
			t.Fatalf("re-normalize failed: %v", err)
		}
		if !reflect.DeepEqual(js, again) {
			t.Fatalf("normalize not idempotent:\n first %+v\nsecond %+v", js, again)
		}
		key, err := JobKey(js)
		if err != nil {
			return // valid spec kinds without a content address
		}
		// Marshal/parse round trip preserves the key.
		rt, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		js2, err := ParseJobSpec(rt)
		if err != nil {
			t.Fatalf("normalized spec does not re-parse: %v\n%s", err, rt)
		}
		if key2 := mustKey(t, js2); key2 != key {
			t.Fatalf("round trip changed key: %s -> %s", key, key2)
		}
		// Re-rendering the raw submission (sorted keys, new whitespace)
		// must hash identically: the hash sees canonical content only.
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.UseNumber()
		var generic interface{}
		if err := dec.Decode(&generic); err != nil {
			return
		}
		rendered, err := json.MarshalIndent(generic, "", "   ")
		if err != nil {
			return
		}
		js3, err := ParseJobSpec(rendered)
		if err != nil {
			return // duplicate JSON keys etc. can change strictness
		}
		if key3 := mustKey(t, js3); key3 != key {
			t.Fatalf("re-rendered submission changed key: %s -> %s\noriginal %s\nrendered %s", key, key3, data, rendered)
		}
	})
}
