package noctest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one row of testdata/mutants.json: an edit of one source file
// and the tests that must kill it, or, for a survivor, why none can.
type mutant struct {
	ID, File, From, To string   // File is from the module root; From occurs in it once
	Tests              []string // "internal/noc.TestCatalogueGateDiff": package, then top-level test
	Claimed            string   // the CHANGES.md entry that named the mutation
	Survives           string
}

// TestMutants is the mutation matrix. Each mutant is compiled in through
// go test -overlay, so no source file is ever edited, and its tests run.
// It fails on a snippet not found exactly once, on a mutant a test of its
// row lets live (unless the row says why it survives) and on a survivor
// that something kills. A compile and a test run per row make it slow,
// so rows run in parallel (-parallel at a time, GOMAXPROCS by default),
// and only when asked:
//
//	NOC_MUTANTS=1 go test ./internal/noctest -run TestMutants -v
//
// and logs the mutant × test matrix: K killed, s survived, - not run (an
// earlier test of its package panicked).
func TestMutants(t *testing.T) {
	if os.Getenv("NOC_MUTANTS") != "1" {
		t.Skip("set NOC_MUTANTS=1 to run the mutation matrix")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []mutant
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]map[string]string, len(rows))
	for i, m := range rows {
		t.Run(m.ID, func(t *testing.T) {
			t.Parallel() // rows share nothing but the build cache
			cells[i] = runMutant(t, root, m)
		})
	}
	t.Cleanup(func() { // after every row
		var cols []string
		matrix := new(strings.Builder)
		for i, m := range rows {
			for _, name := range m.Tests {
				if !slices.Contains(cols, name) {
					cols = append(cols, name)
				}
			}
			fmt.Fprintf(matrix, "%-25s", m.ID)
			for _, name := range cols {
				fmt.Fprintf(matrix, " %1s", cells[i][name])
			}
			fmt.Fprintln(matrix)
		}
		for i, name := range cols {
			fmt.Fprintf(matrix, "column %d: %s\n", i+1, name)
		}
		t.Log("mutation matrix\n" + matrix.String())
	})
}

// runMutant runs one row and returns its matrix cells, by test.
func runMutant(t *testing.T, root string, m mutant) map[string]string {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(src, []byte(m.From)); n != 1 {
		t.Fatalf("%s holds the snippet %d times, want once", m.File, n)
	}
	dir := t.TempDir()
	edited, overlay := filepath.Join(dir, filepath.Base(m.File)), filepath.Join(dir, "overlay.json")
	spec, _ := json.Marshal(map[string]any{"Replace": map[string]string{filepath.Join(root, m.File): edited}}) // strings always marshal
	if os.WriteFile(edited, bytes.Replace(src, []byte(m.From), []byte(m.To), 1), 0o644) != nil || os.WriteFile(overlay, spec, 0o644) != nil {
		t.Fatal("cannot write the mutant")
	}
	var pkgs, names []string
	for _, name := range m.Tests {
		pkg, test, _ := strings.Cut(name, ".")
		if !slices.Contains(pkgs, "./"+pkg) {
			pkgs = append(pkgs, "./"+pkg)
		}
		names = append(names, test)
	}
	cmd := exec.Command("go", append([]string{"test", "-json", "-count=1", "-timeout=120s", "-overlay=" + overlay,
		"-run=^(" + strings.Join(names, "|") + ")$"}, pkgs...)...)
	cmd.Dir, cmd.Env = root, append(os.Environ(), "NOC_MUTANTS=")
	out, _ := cmd.Output() // a killed mutant exits non-zero
	cells := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var ev struct{ Action, Package, Test string }
		if dec.Decode(&ev) != nil {
			break
		}
		if name := strings.TrimPrefix(ev.Package, "chipletnoc/") + "." + ev.Test; slices.Contains(m.Tests, name) {
			cells[name] += map[string]string{"fail": "K", "pass": "s"}[ev.Action]
		}
	}
	var killers, lived []string
	for _, name := range m.Tests {
		switch cells[name] {
		case "K":
			killers = append(killers, name)
		case "s":
			lived = append(lived, name)
		default:
			cells[name] = "-"
		}
	}
	switch {
	case len(killers)+len(lived) == 0:
		t.Errorf("no test ran (a build failure?):\n%s", out[max(0, len(out)-2000):])
	case m.Survives == "" && len(lived) > 0:
		t.Errorf("%s let it live", strings.Join(lived, ", "))
	case m.Survives != "" && len(killers) > 0:
		t.Errorf("listed as a survivor (%s), but %s kills it", m.Survives, strings.Join(killers, ", "))
	}
	return cells
}
