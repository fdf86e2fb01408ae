package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"chipletnoc/internal/clitest"
)

// TestCLI pins what the daemon prints from boot to drain: its listening
// line with state and cache, a boot that quarantines a damaged record, a
// cache it cannot open, and each failure. A case that listens is sent
// SIGTERM at once; the others end before they wait for one.
func TestCLI(t *testing.T) {
	tmp := t.TempDir()
	damaged := filepath.Join(tmp, "damaged")
	if err := os.Mkdir(damaged, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{"file": "", "damaged/job-7.job": "not a sealed job record"} {
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const listen = "-addr 127.0.0.1:0 "
	clitest.Run(t, tmp, []clitest.Case{
		{Name: "drained", Args: listen + "-state $TMP/state -cache-dir $TMP/cache -parallel 1"},
		{Name: "recovery", Args: listen + "-state $TMP/damaged"},
		{Name: "cache-disabled", Args: listen + "-cache-dir $TMP/file", Stderr: "nocd: result cache disabled"},
		{Name: "state-unusable", Args: listen + "-state $TMP/file/state", Code: 1, Stderr: "nocd: "},
		{Name: "listen-fails", Args: "-addr no-port", Code: 1, Stderr: "missing port in address"},
		{Name: "unknown-flag", Args: "-port 80", Code: 2, Stderr: "flag provided but not defined"},
		{Name: "help", Args: "-h", Stderr: "-cache-dir"},
	}, func(args []string, stdout, stderr io.Writer) int {
		sigc := make(chan os.Signal, 1)
		if slices.Contains(args, "127.0.0.1:0") {
			sigc <- syscall.SIGTERM
		}
		return run(args, stdout, stderr, sigc)
	})
}
