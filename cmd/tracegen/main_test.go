package main

import (
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/clitest"
)

// TestCLI pins what the command prints: a model layer and a synthetic
// stream generated, then replayed from the files just written, and each
// failure.
func TestCLI(t *testing.T) {
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "empty.trace"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	clitest.Run(t, tmp, []clitest.Case{
		{Name: "layer", Args: "-model resnet50 -layer 10 -cores 2 -demand 64 -out $TMP/l10"},
		{Name: "replay-layer", Args: "-replay $TMP/l10.core1.trace"},
		{Name: "bert", Args: "-model bert -layer 0 -cores 1 -line 65536 -out $TMP/bert"},
		{Name: "maskrcnn", Args: "-model maskrcnn -layer 0 -cores 1 -line 65536 -out $TMP/maskrcnn"},
		{Name: "synthetic", Args: "-synthetic -ops 300 -rate 0.5 -out $TMP/syn.trace"},
		{Name: "replay-synthetic", Args: "-replay $TMP/syn.trace"},
		{Name: "unknown-model", Args: "-model vgg -out $TMP/x", Code: 1, Stderr: `unknown model "vgg"`},
		{Name: "layer-out-of-range", Args: "-layer 999 -out $TMP/x", Code: 1, Stderr: "layers"},
		{Name: "layer-without-out", Args: "-layer 3", Code: 1, Stderr: "-out required"},
		{Name: "synthetic-without-out", Args: "-synthetic", Code: 1, Stderr: "-out required"},
		{Name: "synthetic-zero-rate", Args: "-synthetic -rate 0 -out $TMP/x", Code: 1, Stderr: "-rate must be positive"},
		{Name: "replay-missing", Args: "-replay $TMP/none.trace", Code: 1, Stderr: "no such file"},
		{Name: "replay-empty", Args: "-replay $TMP/empty.trace", Code: 1, Stderr: "empty trace"},
		{Name: "unknown-flag", Args: "-trace x", Code: 2, Stderr: "flag provided but not defined"},
		{Name: "help", Args: "-h", Stderr: "-replay"},
	}, run)
}
