package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/clitest"
	"chipletnoc/internal/server"
)

// TestCLI pins what the command prints: every Quick artifact, an
// observed run (whose trace bypasses the cache), a checkpoint and its
// resume, a JSON topology, and each misuse.
func TestCLI(t *testing.T) {
	const sim = "-exp simrun -quick -sim-cycles 3000 "
	clitest.Run(t, t.TempDir(), []clitest.Case{
		{Name: "quick", Args: "-quick -parallel 2 -timing", Stderr: "[timing] table5: wall"},
		{Name: "observed", Args: "-exp simrun -quick -metrics-out $TMP/m.json -trace-chrome $TMP/t.json -cache-dir $TMP/cache -timing",
			Stderr: "cache: skipped: a traced run always simulates"},
		{Name: "checkpoint", Args: sim + "-checkpoint-every 1000 -checkpoint $TMP/ckpt"},
		{Name: "resume", Args: sim + "-resume $TMP/ckpt"},
		{Name: "custom", Args: sim + "-sim-topology custom -sim-config ../../examples/topologies/ai-mini.json"},
		{Name: "missing-config", Args: sim + "-sim-config $TMP/none.json", Code: 1, Stderr: "no such file"},
		{Name: "missing-resume", Args: sim + "-resume $TMP/none", Code: 1, Stderr: "no such file"},
		{Name: "missing-serving-spec", Args: "-exp serving -serving-spec $TMP/none.json", Code: 1, Stderr: "no such file"},
		{Name: "metrics-off-simrun", Args: "-exp table5 -metrics-out $TMP/m.json", Code: 2, Stderr: "apply only to -exp simrun"},
		{Name: "trace-off-simrun", Args: "-exp fig11 -trace-chrome $TMP/t.json", Code: 2, Stderr: "apply only to -exp simrun"},
		{Name: "zero-interval", Args: "-exp simrun -metrics-out $TMP/m.json -metrics-interval 0", Code: 2, Stderr: "must be positive"},
		{Name: "unknown-experiment", Args: "-exp fig99", Code: 2, Stderr: `unknown experiment "fig99"`},
		{Name: "unknown-flag", Args: "-partitions 2", Code: 2, Stderr: "flag provided but not defined"},
		{Name: "help", Args: "-h", Stderr: "-serving-spec"},
	}, run)
}

// TestDaemonMatchesCLI: the CSV the command writes with -csv is the one
// nocd serves as ?format=csv for the same job, byte for byte, and its
// stdout opens with nocd's ?format=text. Given the cache directory the
// daemon warmed, the command replays those bytes without simulating.
func TestDaemonMatchesCLI(t *testing.T) {
	tmp := t.TempDir()
	cache := filepath.Join(tmp, "cache")
	store, err := artifact.Open(artifact.Config{Dir: cache})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	doc := `{"seed":5,"loads":[2,8,32],"cycles":5000}`
	spec := filepath.Join(tmp, "serving.json")
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	simBody, servingBody := `{"kind":"sim","sim":{"topology":"ai-processor","scale":"quick"}}`, `{"kind":"serving","serving":`+doc+`}`
	for _, tc := range []struct{ name, body, args, csv string }{
		{"sim", simBody, "-exp simrun -quick", "simrun.csv"},
		{"fig11", `{"kind":"experiment","experiment":"fig11","scale":"quick"}`, "-exp fig11 -quick", "fig11.csv"},
		{"serving", servingBody, "-exp serving -quick -serving-spec " + spec, "serving.csv"},
		{"sim-cache-hit", simBody, "-exp simrun -quick -cache-dir " + cache, "simrun.csv"},
		{"serving-cache-hit", servingBody, "-exp serving -quick -serving-spec " + spec + " -cache-dir " + cache, "serving.csv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := submit(t, ts.URL, tc.body)
			dir := t.TempDir()
			var stdout, stderr strings.Builder
			if code := run(append(strings.Fields(tc.args), "-csv", dir), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if hit := strings.Contains(stderr.String(), "cache: hit"); hit != strings.HasSuffix(tc.name, "-cache-hit") {
				t.Errorf("cache hit %v; stderr:\n%s", hit, stderr.String())
			}
			cli, err := os.ReadFile(filepath.Join(dir, tc.csv))
			if err != nil {
				t.Fatal(err)
			}
			if daemon := get(t, ts.URL+"/jobs/"+id+"/result?format=csv"); string(cli) != daemon {
				t.Errorf("CLI CSV differs from the daemon's:\ncli:\n%s\ndaemon:\n%s", cli, daemon)
			}
			if text := get(t, ts.URL+"/jobs/"+id+"/result?format=text"); !strings.HasPrefix(stdout.String(), text) {
				t.Errorf("CLI stdout does not open with the daemon's text:\ncli:\n%s\ndaemon:\n%s", stdout.String(), text)
			}
		})
	}
}

// submit posts a job and waits until it is done.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v struct{ ID, Status string }
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	for deadline := time.Now().Add(time.Minute); err == nil && v.Status != "done"; time.Sleep(5 * time.Millisecond) {
		if v.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s: %s", v.ID, v.Status)
		}
		err = json.Unmarshal([]byte(get(t, base+"/jobs/"+v.ID)), &v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v.ID
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d %v: %s", url, resp.StatusCode, err, data)
	}
	return string(data)
}
