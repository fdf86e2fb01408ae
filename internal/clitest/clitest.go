// Package clitest is the golden table the commands under cmd/ are tested
// by: each case calls a command's run function in-process and checks its
// exit status, a line of its stderr, and its stdout byte for byte against
// testdata/<case>.stdout. go test -update rewrites those files.
package clitest

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.stdout from this run")

// Case is one invocation. Args is split on spaces after $TMP is replaced
// by the table's scratch directory, which is also written back as $TMP
// in the stdout compared. An absent golden file means empty stdout.
type Case struct {
	Name   string
	Args   string
	Code   int    // exit status
	Stderr string // text stderr must hold
}

// Run runs the cases in order, so a case may read what an earlier one
// wrote under tmp.
func Run(t *testing.T, tmp string, cases []Case, run func(args []string, stdout, stderr io.Writer) int) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(strings.Fields(strings.ReplaceAll(c.Args, "$TMP", tmp)), &stdout, &stderr)
			if code != c.Code || !strings.Contains(stderr.String(), c.Stderr) {
				t.Errorf("exit %d, want %d with %q on stderr; stderr:\n%s", code, c.Code, c.Stderr, stderr.String())
			}
			got, path := strings.ReplaceAll(stdout.String(), tmp, "$TMP"), filepath.Join("testdata", c.Name+".stdout")
			if *update {
				os.Remove(path)
				if got != "" {
					if err := errors.Join(os.MkdirAll("testdata", 0o755), os.WriteFile(path, []byte(got), 0o644)); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from %s:\n%s", path, got)
			}
		})
	}
}
