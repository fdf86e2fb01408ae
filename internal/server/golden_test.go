// Byte pins for everything a job kind shows the outside world: content
// addresses, cache payloads and rendered result bodies. The constants
// were captured on the tree before the job-kind seam existed, so a
// refactor of how kinds are described cannot move a key (which would
// orphan every warmed cache directory), a payload byte (which would
// break a CLI and a daemon sharing one), or a response.
package server

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"chipletnoc/internal/sim"
)

// fnvHex is the FNV-1a 64-bit digest of data, in hex.
func fnvHex(data []byte) string { return fmt.Sprintf("%016x", sim.FNV1a(data)) }

const (
	goldenSimBody     = `{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`
	goldenTable6Body  = `{"experiment":"table6","scale":"quick"}`
	goldenServingBody = servingBody
)

// TestJobKeyAndPayloadGolden pins one JobKey per kind (plus a
// custom-config sim carrying the inert partitions key) and the encoded
// cache payload of one completed job per kind, read back from the store
// the daemon populated.
func TestJobKeyAndPayloadGolden(t *testing.T) {
	keyOf := func(body []byte) string {
		t.Helper()
		spec, err := ParseJobSpec(body)
		if err != nil {
			t.Fatalf("ParseJobSpec(%s): %v", body, err)
		}
		return mustKey(t, spec)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"default sim", []byte(`{}`), "edadca32adc2afaaa7852482b021d52e2f96b0db4bbe064d56abee5cc9635b63"},
		{"custom config with partitions", customBody(t, cacheMultiringSpec, 1500, 0, 4), "2ecd48826568ad725701792ec893268fde93e5d42239b0e9836a587813b5541e"},
		{"experiment table6", []byte(goldenTable6Body), "17c691d0e7b5c9a75e29844ea3a812eedcd9b7b9ed4c9bf0299fc490868281ff"},
		{"serving", []byte(goldenServingBody), "e2e50c8669c78ad11e5d7f7a6a7fd52fb50e007bebb1a808e9b3a7b142cbab32"},
	} {
		if got := keyOf(tc.body); got != tc.want {
			t.Errorf("%s: JobKey = %s, want %s", tc.name, got, tc.want)
		}
	}

	store := testStore(t)
	s, ts := testServer(t, Config{Cache: store})
	defer s.Shutdown()
	for _, tc := range []struct {
		name    string
		body    string
		wantLen int
		wantFNV string
	}{
		{"quick sim", goldenSimBody, 342, "c4595b1ebc26331b"},
		{"table6", goldenTable6Body, 485, "0928c062f738caaf"},
		{"two-load serving sweep", goldenServingBody, 1086, "43b89ad0d5cb7368"},
	} {
		v, _ := submitJob(t, ts.URL, []byte(tc.body))
		waitFor(t, ts.URL, v.ID, func(st JobStatus) bool { return st == StatusDone })
		payload, ok := store.Get(keyOf([]byte(tc.body)))
		if !ok {
			t.Errorf("%s: completed job left no cache entry", tc.name)
			continue
		}
		if len(payload) != tc.wantLen || fnvHex(payload) != tc.wantFNV {
			t.Errorf("%s: cache payload is %d bytes, FNV-1a %s; want %d bytes, %s",
				tc.name, len(payload), fnvHex(payload), tc.wantLen, tc.wantFNV)
		}
	}
}

// TestResultFormats pins GET /jobs/{id}/result for every kind and every
// format spelling: status, Content-Type and a digest of the body (error
// bodies included, so the messages are pinned too). The multi-CSV
// artifact covers ?file= selection and the 400 that lists the files.
func TestResultFormats(t *testing.T) {
	s, ts := testServer(t, Config{})
	defer s.Shutdown()
	ids := map[string]string{}
	for name, body := range map[string]string{
		"sim":        goldenSimBody,
		"experiment": goldenTable6Body,
		"serving":    goldenServingBody,
		"multi-csv":  `{"experiment":"table7","scale":"quick"}`,
	} {
		v, _ := submitJob(t, ts.URL, []byte(body))
		ids[name] = v.ID
	}
	for _, id := range ids {
		waitFor(t, ts.URL, id, func(st JobStatus) bool { return st == StatusDone })
	}

	const (
		jsonType = "application/json"
		csvType  = "text/csv"
		textType = "text/plain; charset=utf-8"
	)
	for _, tc := range []struct {
		job, query string
		status     int
		ctype, fnv string
	}{
		{"sim", "", 200, jsonType, "2138782d38a015bf"},
		{"sim", "?format=json", 200, jsonType, "2138782d38a015bf"},
		{"sim", "?format=csv", 200, csvType, "7063e76b29194341"},
		{"sim", "?format=text", 200, textType, "3dff00fe815855c2"},
		{"sim", "?format=bogus", 400, jsonType, "bca41f4179abdeb1"},
		{"experiment", "", 200, jsonType, "c8012aa59615a07c"},
		{"experiment", "?format=json", 200, jsonType, "c8012aa59615a07c"},
		{"experiment", "?format=csv", 400, jsonType, "299963d7af54c5ca"},
		{"experiment", "?format=text", 200, textType, "1c3390db0552218f"},
		{"experiment", "?format=bogus", 400, jsonType, "bca41f4179abdeb1"},
		{"serving", "", 200, jsonType, "947244dabb3592fc"},
		{"serving", "?format=json", 200, jsonType, "947244dabb3592fc"},
		{"serving", "?format=csv", 200, csvType, "3e4abf5efb5a462d"},
		{"serving", "?format=text", 200, textType, "4fa0475e4e757b94"},
		{"serving", "?format=bogus", 400, jsonType, "bca41f4179abdeb1"},
		{"multi-csv", "?format=csv&file=table7.csv", 200, csvType, "a943dec4aaafdf98"},
		{"multi-csv", "?format=csv&file=fig14_probes.csv", 200, csvType, "918a891f6128becd"},
		{"multi-csv", "?format=csv&file=nope.csv", 400, jsonType, "d073ceb077179754"},
		{"multi-csv", "?format=csv", 400, jsonType, "d073ceb077179754"},
	} {
		resp, err := http.Get(ts.URL + "/jobs/" + ids[tc.job] + "/result" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != tc.ctype || fnvHex(body) != tc.fnv {
			t.Errorf("%s %s: HTTP %d, Content-Type %q, body FNV-1a %s; want %d, %q, %s",
				tc.job, tc.query, resp.StatusCode, resp.Header.Get("Content-Type"), fnvHex(body),
				tc.status, tc.ctype, tc.fnv)
		}
	}
}
