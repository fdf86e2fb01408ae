// The warm-admission layer: proof that the admission memo and the
// decoded-result memo change what a resubmission costs and nothing else.
// The memos must be invisible in every response byte, must never answer
// where the store would not, must stay under their byte budgets whatever
// is thrown at them, and a warm hit must not touch the filesystem.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/durable"
	"chipletnoc/internal/experiments"
)

// kindBodies is one submission of every kind, the custom-config sim
// counted as its own: it is the one whose admission is expensive.
func kindBodies(t *testing.T) map[string][]byte {
	t.Helper()
	return map[string][]byte{
		"sim":        []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`),
		"custom":     customBody(t, cacheHubSpec, 1500, 0, 0),
		"experiment": []byte(`{"experiment":"area","scale":"quick"}`),
		"serving":    []byte(servingBody),
	}
}

// rawReply is one HTTP exchange reduced to what a client can observe.
type rawReply struct {
	code  int
	cache string
	body  string
}

func tryDo(method, url string, body []byte) (rawReply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return rawReply{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return rawReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return rawReply{code: resp.StatusCode, cache: resp.Header.Get("X-Nocd-Cache"), body: string(data)}, err
}

func rawDo(t *testing.T, method, url string, body []byte) rawReply {
	t.Helper()
	r, err := tryDo(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// admitted is everything a client sees of one submission of a stored
// spec: the 202 (with the job id blanked) and the three result formats.
type admitted struct {
	submit          rawReply
	json, csv, text rawReply
}

// trySubmitAndFetch is safe off the test goroutine.
func trySubmitAndFetch(base string, body []byte) (a admitted, err error) {
	if a.submit, err = tryDo("POST", base+"/jobs", body); err != nil {
		return a, err
	}
	var v jobView
	if err := json.Unmarshal([]byte(a.submit.body), &v); err != nil || a.submit.code != http.StatusAccepted {
		return a, fmt.Errorf("POST /jobs: HTTP %d: %s (%v)", a.submit.code, a.submit.body, err)
	}
	a.submit.body = strings.Replace(a.submit.body, `"`+v.ID+`"`, `"job-?"`, 1)
	for format, into := range map[string]*rawReply{"json": &a.json, "csv": &a.csv, "text": &a.text} {
		if *into, err = tryDo("GET", base+"/jobs/"+v.ID+"/result?format="+format, nil); err != nil {
			return a, err
		}
	}
	return a, nil
}

func submitAndFetch(t *testing.T, base string, body []byte) admitted {
	t.Helper()
	a, err := trySubmitAndFetch(base, body)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// warmStore runs every body cold on a throwaway daemon, leaving their
// results in store.
func warmStore(t *testing.T, store *artifact.Store, bodies map[string][]byte) {
	t.Helper()
	s, ts := testServer(t, Config{Cache: store})
	defer s.Shutdown()
	for name, body := range bodies {
		v, disp := submitJob(t, ts.URL, body)
		if disp != "miss" {
			t.Fatalf("%s: cold submission dispositioned %q, want miss", name, disp)
		}
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
	}
}

func readyAdmission(t *testing.T, base string) admissionView {
	t.Helper()
	var rv readyView
	if resp := doJSON(t, "GET", base+"/readyz", nil, &rv); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
	return rv.Admission
}

// TestAdmissionMemoInvisible: for every kind, a daemon that has seen a
// body many times answers it exactly as a daemon seeing it for the first
// time does; a differently spelled equal spec misses the admission memo,
// still hits the store, and gets its own spelling echoed; and concurrent
// identical submitters share one memoised spec without anyone writing it
// (CI runs this under -race).
func TestAdmissionMemoInvisible(t *testing.T) {
	bodies := kindBodies(t)
	store := testStore(t)
	warmStore(t, store, bodies)

	const repeats = 6
	seen, seenTS := testServer(t, Config{Cache: store})
	defer seen.Shutdown()
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			before := readyAdmission(t, seenTS.URL)
			var last admitted
			for i := 0; i < repeats; i++ {
				last = submitAndFetch(t, seenTS.URL, body)
			}
			after := readyAdmission(t, seenTS.URL)
			if hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses; hits != repeats-1 || misses != 1 {
				t.Fatalf("admission memo: %d hits %d misses over %d identical bodies, want %d and 1", hits, misses, repeats, repeats-1)
			}
			if hits, misses := after.DecodedHits-before.DecodedHits, after.DecodedMisses-before.DecodedMisses; hits != repeats-1 || misses != 1 {
				t.Fatalf("decoded results: %d reused %d decoded over %d hits, want %d and 1", hits, misses, repeats, repeats-1)
			}

			first, firstTS := testServer(t, Config{Cache: store})
			defer first.Shutdown()
			fresh := submitAndFetch(t, firstTS.URL, body)
			if got := readyAdmission(t, firstTS.URL); got.MemoHits != 0 || got.DecodedHits != 0 {
				t.Fatalf("a daemon's first sight of a body used a memo: %+v", got)
			}
			if fresh.submit.cache != "hit" {
				t.Fatalf("first-sight submission dispositioned %q, want hit (the store is warm)", fresh.submit.cache)
			}
			if last != fresh {
				t.Fatalf("the %dth sight of a body and the first differ:\nmemoised %+v\nfresh    %+v", repeats, last, fresh)
			}
		})
	}

	t.Run("respelled", func(t *testing.T) {
		// Key order, whitespace, the checkpoint cadence and the inert
		// partitions key: equal specs, different bytes.
		plain := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)
		respelled := []byte("{ \"sim\": {\"checkpoint_every\":256, \"cycles\":1500,\n \"topology\":\"ai-processor\"} }")
		before := readyAdmission(t, seenTS.URL)
		got := submitAndFetch(t, seenTS.URL, respelled)
		ref := submitAndFetch(t, seenTS.URL, plain)
		after := readyAdmission(t, seenTS.URL)
		if after.MemoMisses-before.MemoMisses != 1 || after.MemoHits-before.MemoHits != 1 {
			t.Fatalf("respelled body: memo went %+v → %+v, want one miss (it) and one hit (the plain spelling)", before, after)
		}
		if after.DecodedHits-before.DecodedHits != 2 {
			t.Fatalf("respelled body did not reuse the decoded result: %+v → %+v", before, after)
		}
		if got.submit != ref.submit || got.csv != ref.csv || got.text != ref.text {
			t.Fatalf("respelled submission answered differently:\n%+v\n%+v", got, ref)
		}
		if !strings.Contains(got.json.body, `"checkpoint_every":256`) || strings.Contains(ref.json.body, "checkpoint_every") {
			t.Fatalf("spec echoes crossed:\nrespelled %s\nplain     %s", got.json.body, ref.json.body)
		}
		// The inert key is accepted, shares the key of the spec without it
		// (a hit on the stored run) and is dropped, not echoed.
		custom := submitAndFetch(t, seenTS.URL, customBody(t, cacheHubSpec, 1500, 0, 4))
		if custom.submit.cache != "hit" || strings.Contains(custom.json.body, "partitions") {
			t.Fatalf("partitions variant: disposition %q, echo %s", custom.submit.cache, custom.json.body)
		}
		if ref := submitAndFetch(t, seenTS.URL, bodies["custom"]); ref != custom {
			t.Fatalf("the partitions variant answered differently from the body without the key:\n%+v\n%+v", custom, ref)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		for name, body := range bodies {
			adm, ok := seen.admissions.get(sha256.Sum256(body))
			if !ok {
				t.Fatalf("%s: body not memoised", name)
			}
			snapshot, err := json.Marshal(adm.spec)
			if err != nil {
				t.Fatal(err)
			}
			want := submitAndFetch(t, seenTS.URL, body)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						if got, err := trySubmitAndFetch(seenTS.URL, body); err != nil || got != want {
							t.Errorf("%s: a concurrent submission answered differently (%v)", name, err)
						}
					}
				}()
			}
			wg.Wait()
			// A write through the shared *SimSpec or serving document under
			// s.mu is no data race; it shows here instead.
			adm, _ = seen.admissions.get(sha256.Sum256(body))
			if now, _ := json.Marshal(adm.spec); !bytes.Equal(now, snapshot) {
				t.Errorf("%s: the memoised spec was written:\nbefore %s\nafter  %s", name, snapshot, now)
			}
		}
	})
}

// TestMemoNeverOutvotesStore: with both memos warm for a body, whatever
// happens to the store entry decides the answer — deleted is a miss,
// corrupted on disk is an evict-and-rerun, and a different payload under
// the key is decoded afresh and served. Each admission costs the store
// exactly the lookups it cost before the memos existed.
func TestMemoNeverOutvotesStore(t *testing.T) {
	var runs atomic.Int32
	testRunHook = func() { runs.Add(1) }
	defer func() { testRunHook = nil }()

	dir := t.TempDir()
	// A one-byte memory tier holds nothing: every Get reads the disk.
	store, err := artifact.Open(artifact.Config{Dir: dir, MemBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Cache: store})
	defer s.Shutdown()

	body := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)
	spec, err := ParseJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, spec)

	cold := func(why string) admitted {
		t.Helper()
		before, ran := store.Stats(), runs.Load()
		v, disp := submitJob(t, ts.URL, body)
		if disp != "miss" {
			t.Fatalf("%s: dispositioned %q, want miss", why, disp)
		}
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
		if runs.Load() != ran+1 {
			t.Fatalf("%s: %d runs, want 1", why, runs.Load()-ran)
		}
		// Two lookups, both absent: admission's probe and the dequeue recheck.
		if st := store.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+2 || st.Puts != before.Puts+1 {
			t.Fatalf("%s: store went %+v → %+v, want +2 misses +1 put", why, before, st)
		}
		return submitAndFetchWarm(t, ts.URL, store, body)
	}
	want := cold("first submission")
	for i := 0; i < 3; i++ {
		if got := submitAndFetchWarm(t, ts.URL, store, body); got != want {
			t.Fatalf("warm submission %d differs from the first", i)
		}
	}
	if a := s.admissionStats(); a.MemoHits < 3 || a.DecodedHits < 3 {
		t.Fatalf("memos are not warm: %+v", a)
	}

	// Deleted from the store: the memos still hold the spec and the decoded
	// result; the answer must be a miss and a real run all the same.
	store.Delete(key)
	if got := cold("after Cache.Delete"); got != want {
		t.Fatal("rerun after Delete produced different bytes")
	}

	// Rotted on disk: the store evicts and reports absent; the job reruns.
	path := filepath.Join(dir, key+".art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("store entry not where the test expects it: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := store.Stats().CorruptEvicted
	if got := cold("after on-disk corruption"); got != want {
		t.Fatal("rerun after corruption produced different bytes")
	}
	if store.Stats().CorruptEvicted != corrupt+1 {
		t.Fatal("the corrupt entry was not evicted by the store")
	}

	// Another payload under the same key: the decoded memo holds the old
	// one, so only the byte comparison stands between a client and stale
	// rows. The stand-in is a shorter run's result; served, it carries the
	// submission's own spec like any other.
	other, err := experiments.RunSim(experiments.SimSpec{Topology: "ai-processor", Scale: "quick", Cycles: 1400}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other.Spec = *spec.Sim
	payload, err := (&Result{Kind: spec.Kind, Sim: other}).encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	decoded := s.admissionStats().DecodedMisses
	swapped := submitAndFetchWarm(t, ts.URL, store, body)
	if swapped.csv.body != other.CSV() || swapped.csv == want.csv {
		t.Fatalf("a new payload under the key was not served:\n%s\nwant:\n%s", swapped.csv.body, other.CSV())
	}
	if s.admissionStats().DecodedMisses != decoded+1 {
		t.Fatal("the new payload was not decoded")
	}
	if got := submitAndFetchWarm(t, ts.URL, store, body); got != swapped {
		t.Fatal("the new payload's decoded result was not reused faithfully")
	}
}

// submitAndFetchWarm is submitAndFetch for a submission that must be a
// cache hit costing the store exactly one successful lookup.
func submitAndFetchWarm(t *testing.T, base string, store *artifact.Store, body []byte) admitted {
	t.Helper()
	before := store.Stats()
	a := submitAndFetch(t, base, body)
	if a.submit.cache != "hit" {
		t.Fatalf("warm submission dispositioned %q, want hit", a.submit.cache)
	}
	if st := store.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses || st.Puts != before.Puts {
		t.Fatalf("a warm admission took the store %+v → %+v, want exactly one hit", before, st)
	}
	return a
}

// paddedCustomBody is a valid custom-topology submission of about size
// bytes that normalizes to about as many: the padding is an unknown key
// of the config document, which canonicalization keeps.
func paddedCustomBody(t *testing.T, size, n int) []byte {
	t.Helper()
	pad := fmt.Sprintf(`{"pad%d":%q,`, n, strings.Repeat("p", size))
	doc := strings.Replace(strings.TrimSpace(cacheHubSpec), "{", pad, 1)
	body, err := json.Marshal(map[string]interface{}{"sim": map[string]interface{}{"topology": "custom", "cycles": 1000, "config": doc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxJobSpecBytes {
		t.Fatalf("padded body is %d bytes, over the limit", len(body))
	}
	return body
}

func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestAdmissionMemosBounded: distinct near-limit valid bodies, and
// invalid ones between them, keep the admission memo under its constant
// and the heap flat once it has filled; an invalid body is never
// remembered and is refused in the same words every time; and distinct
// large payloads keep the decoded memo under its constant too.
func TestAdmissionMemosBounded(t *testing.T) {
	s, ts := testServer(t, Config{Cache: testStore(t)})
	defer s.Shutdown()

	const size = 900 << 10
	admit := func(n int) {
		t.Helper()
		if _, err := s.admissionOf(paddedCustomBody(t, size, n)); err != nil {
			t.Fatalf("body %d rejected: %v", n, err)
		}
		if _, err := s.admissionOf([]byte(fmt.Sprintf(`{"sim":{"topology":"nowhere-%d"}}`, n))); err == nil {
			t.Fatalf("invalid body %d accepted", n)
		}
		if got := s.admissions.size(); got > admissionMemoBytes {
			t.Fatalf("after %d bodies the admission memo holds %d bytes, over its %d-byte bound", n+1, got, admissionMemoBytes)
		}
	}
	fill := admissionMemoBytes/size + 2
	for n := 0; n < fill; n++ {
		admit(n)
	}
	if got := s.admissions.size(); got < admissionMemoBytes/2 {
		t.Fatalf("the memo holds %d bytes after %d near-limit bodies: the test is not reaching the bound", got, fill)
	}
	filled := liveHeap()
	for n := fill; n < 2*fill; n++ {
		admit(n)
	}
	if grew := liveHeap() - filled; grew > 2<<20 {
		t.Fatalf("live heap grew %d bytes over %d more near-limit bodies", grew, fill)
	}
	// The newest body is remembered, the oldest long gone.
	before := s.admissionStats()
	s.admissionOf(paddedCustomBody(t, size, 2*fill-1))
	s.admissionOf(paddedCustomBody(t, size, 0))
	if after := s.admissionStats(); after.MemoHits != before.MemoHits+1 || after.MemoMisses != before.MemoMisses+1 {
		t.Fatalf("newest and oldest body: memo went %+v → %+v, want one hit and one miss", before, after)
	}

	// Invalid bodies over HTTP: a decode error, a normalize error and a
	// custom config that does not parse.
	for _, bad := range []string{
		`{"sim":{"topology":"ai-processor"},"bogus":1}`,
		`{"kind":"experiment","experiment":"no-such-artifact"}`,
		`{"sim":{"topology":"custom","config":"{not json"}}`,
	} {
		held := s.admissions.size()
		first := rawDo(t, "POST", ts.URL+"/jobs", []byte(bad))
		before := s.admissionStats()
		again := rawDo(t, "POST", ts.URL+"/jobs", []byte(bad))
		after := s.admissionStats()
		if first.code != http.StatusBadRequest || first != again {
			t.Errorf("%s: refused as %+v, then as %+v", bad, first, again)
		}
		if after.MemoMisses != before.MemoMisses+1 || after.MemoHits != before.MemoHits || s.admissions.size() != held {
			t.Errorf("%s: an invalid body was remembered (%+v → %+v)", bad, before, after)
		}
	}

	// The decoded memo: distinct 1 MiB artifacts, one lookup each.
	store, err := artifact.Open(artifact.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	exp, err := ParseJobSpec([]byte(`{"experiment":"area"}`))
	if err != nil {
		t.Fatal(err)
	}
	k := kinds[exp.Kind]
	text := strings.Repeat("r", 1<<20)
	for n := 0; n < 2*decodedMemoBytes/(3*len(text)); n++ {
		key := fmt.Sprintf("%064x", n+1)
		payload, err := (&Result{Kind: k.name, Artifact: &experiments.Artifact{Name: key, Text: text}}).encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if res := d.cached(key, k); res == nil || res.Artifact.Name != key {
			t.Fatalf("payload %d not served from the store", n)
		}
		if got := d.decoded.size(); got > decodedMemoBytes {
			t.Fatalf("after %d payloads the decoded memo is charged %d bytes, over its %d-byte bound", n+1, got, decodedMemoBytes)
		}
	}
	if got := d.decoded.size(); got < decodedMemoBytes/2 {
		t.Fatalf("the decoded memo is charged %d bytes: the test is not reaching the bound", got)
	}
}

// TestWarmHitTouchesNoFile: a cache hit served from the memory tier
// writes, reads and unlinks nothing — while a job that does have state
// files, a recovered one answered from the cache at dequeue, still loses
// them.
func TestWarmHitTouchesNoFile(t *testing.T) {
	var unlinked []string
	var unlinkMu sync.Mutex
	testDropHook = func(id string) {
		unlinkMu.Lock()
		unlinked = append(unlinked, id)
		unlinkMu.Unlock()
	}
	defer func() { testDropHook = nil }()
	drops := func() []string {
		unlinkMu.Lock()
		defer unlinkMu.Unlock()
		return append([]string(nil), unlinked...)
	}

	store := testStore(t)
	stateDir := t.TempDir()
	s, ts := testServer(t, Config{Cache: store, StateDir: stateDir})
	body := []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)
	cold, _ := submitJob(t, ts.URL, body)
	waitFor(t, ts.URL, cold.ID, func(st JobStatus) bool { return st == StatusDone })
	if got := drops(); len(got) != 1 || got[0] != cold.ID {
		t.Fatalf("the cold job's admission record was dropped %v times, want once", got)
	}
	want := submitAndFetch(t, ts.URL, body)

	var writes, reads atomic.Int32
	durable.SetWriterWrap(func(w io.Writer) io.Writer { writes.Add(1); return w })
	durable.SetReadMangle(func(b []byte) []byte { reads.Add(1); return b })
	for i := 0; i < 5; i++ {
		if got := submitAndFetch(t, ts.URL, body); got != want {
			t.Errorf("warm submission %d answered differently", i)
		}
	}
	durable.SetWriterWrap(nil)
	durable.SetReadMangle(nil)
	if writes.Load() != 0 || reads.Load() != 0 || len(drops()) != 1 {
		t.Fatalf("five warm hits made %d durable writes, %d durable reads and %d unlinks, want none",
			writes.Load(), reads.Load(), len(drops())-1)
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("state directory holds %d entries after warm hits (%v), want none", len(entries), err)
	}
	s.Shutdown()

	// A recovered job whose result is already stored: done at dequeue, from
	// the cache, and its record and checkpoint go.
	spec, err := ParseJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(t, stateDir, "job-40", spec)
	if err := os.WriteFile(filepath.Join(stateDir, "job-40.ckpt"), []byte("stale checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{Cache: store, StateDir: stateDir})
	defer s2.Shutdown()
	got := waitFor(t, ts2.URL, "job-40", func(st JobStatus) bool { return st == StatusDone })
	if !got.Cached {
		t.Fatalf("recovered job = %+v, want it served from the cache", got)
	}
	if csv := rawDo(t, "GET", ts2.URL+"/jobs/job-40/result?format=csv", nil); csv != want.csv {
		t.Error("recovered job's CSV differs from the warm hits'")
	}
	if got := drops(); len(got) != 2 || got[1] != "job-40" {
		t.Fatalf("drops = %v, want the recovered job's files unlinked once", got)
	}
	for _, suffix := range []string{jobRecordSuffix, checkpointSuffix} {
		if _, err := os.Stat(filepath.Join(stateDir, "job-40"+suffix)); !os.IsNotExist(err) {
			t.Errorf("job-40%s survived the job (%v)", suffix, err)
		}
	}
}

// TestRecoveredTwinsShareOneFlight: two persisted records with one
// content address and different checkpoint progress boot into one
// flight, whichever comes first; it resumes from the furthest checkpoint,
// runs once, and both jobs get the uninterrupted run's bytes.
func TestRecoveredTwinsShareOneFlight(t *testing.T) {
	spec := quickSimSpec(t)
	ckptSpec := *spec.Sim
	ckptSpec.CheckpointEvery = 500
	spec.Sim = &ckptSpec
	type checkpoint struct {
		data  []byte
		cycle uint64
	}
	var ckpts []checkpoint
	ctl := &experiments.SimControl{OnCheckpoint: func(data []byte, cycle uint64) error {
		ckpts = append(ckpts, checkpoint{append([]byte(nil), data...), cycle})
		return nil
	}}
	want, err := experiments.RunSim(ckptSpec, nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) < 3 {
		t.Fatalf("the reference run took %d checkpoints, want at least 3", len(ckpts))
	}
	near, far := ckpts[0], ckpts[len(ckpts)-1]

	for _, order := range [][2]checkpoint{{near, far}, {far, near}} {
		t.Run(fmt.Sprintf("first-at-%d", order[0].cycle), func(t *testing.T) {
			dir := t.TempDir()
			for i, c := range order {
				id := fmt.Sprintf("job-%d", i)
				rec, err := json.Marshal(persistedJob{ID: id, Spec: spec, Cycle: c.cycle})
				if err != nil {
					t.Fatal(err)
				}
				if err := durable.WriteSealed(filepath.Join(dir, id+jobRecordSuffix), rec, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := durable.WriteFile(filepath.Join(dir, id+checkpointSuffix), c.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// Both hooks run on the one worker, before and at the run; what
			// they read was written before the worker started.
			var runs, members atomic.Int32
			var resumedFrom atomic.Uint64
			testPanicHook = func(lead *Job) {
				members.Store(int32(len(lead.flight.jobs)))
				resumedFrom.Store(lead.flight.cycle)
			}
			testRunHook = func() { runs.Add(1) }
			s, ts := testServer(t, Config{StateDir: dir, Cache: testStore(t), Workers: 1})
			defer func() {
				s.Shutdown()
				testPanicHook, testRunHook = nil, nil
			}()

			if rec := s.Recovery(); rec.Resumed != 2 || rec.Quarantined != 0 {
				t.Fatalf("recovery = %+v, want both records resumed", rec)
			}
			var bodies [2]admitted
			for i := range bodies {
				id := fmt.Sprintf("job-%d", i)
				v := waitFor(t, ts.URL, id, func(st JobStatus) bool { return st == StatusDone })
				if v.Coalesced != (i == 1) || v.Cached {
					t.Errorf("%s = %+v, want job-1 coalesced onto job-0 and neither cached", id, v)
				}
				bodies[i] = admitted{
					json: rawDo(t, "GET", ts.URL+"/jobs/"+id+"/result?format=json", nil),
					csv:  rawDo(t, "GET", ts.URL+"/jobs/"+id+"/result?format=csv", nil),
					text: rawDo(t, "GET", ts.URL+"/jobs/"+id+"/result?format=text", nil),
				}
			}
			if runs.Load() != 1 || members.Load() != 2 {
				t.Fatalf("%d runs over a flight of %d, want one run of a two-member flight", runs.Load(), members.Load())
			}
			if resumedFrom.Load() != far.cycle {
				t.Fatalf("the flight resumed from cycle %d, want the furthest checkpoint (%d, not %d)", resumedFrom.Load(), far.cycle, near.cycle)
			}
			if bodies[0] != bodies[1] {
				t.Fatalf("the twins' results differ:\n%+v\n%+v", bodies[0], bodies[1])
			}
			if bodies[0].csv.body != want.CSV() || bodies[0].text.body != want.Render() {
				t.Fatal("the resumed flight's result differs from the uninterrupted run")
			}
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) != 0 {
				t.Fatalf("state directory holds %d entries after both jobs finished (%v), want none", len(entries), err)
			}
		})
	}
}

// BenchmarkWarmAdmission times what a resubmission costs the daemon at
// handler level — POST /jobs, then GET its result as CSV or text, no
// network — against a store that already holds the result, per kind.
func BenchmarkWarmAdmission(b *testing.B) {
	store, err := artifact.Open(artifact.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Cache: store, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	h := s.Handler()
	serve := func(method, url string, body []byte) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, url, bytes.NewReader(body)))
		return rr
	}
	custom, err := json.Marshal(map[string]interface{}{"sim": map[string]interface{}{"topology": "custom", "cycles": 1500, "config": cacheHubSpec}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, format string
		body         []byte
	}{
		{"sim", "csv", []byte(`{"kind":"sim","sim":{"topology":"ai-processor","cycles":1500}}`)},
		{"experiment", "text", []byte(`{"experiment":"area","scale":"quick"}`)},
		{"serving", "csv", []byte(servingBody)},
		{"custom", "csv", custom},
	} {
		b.Run(bc.name, func(b *testing.B) {
			submit := func() jobView {
				rr := serve("POST", "/jobs", bc.body)
				var v jobView
				if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil || rr.Code != http.StatusAccepted {
					b.Fatalf("POST /jobs: HTTP %d %s", rr.Code, rr.Body)
				}
				return v
			}
			for job, _ := s.Get(submit().ID); s.view(job).Status != StatusDone; {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := submit()
				if !v.Cached {
					b.Fatalf("submission %d was not a cache hit: %+v", i, v)
				}
				if rr := serve("GET", "/jobs/"+v.ID+"/result?format="+bc.format, nil); rr.Code != http.StatusOK || rr.Body.Len() == 0 {
					b.Fatalf("GET result: HTTP %d", rr.Code)
				}
			}
		})
	}
}
