package main

import (
	"os"
	"path/filepath"
	"testing"

	"chipletnoc/internal/clitest"
)

// TestCLI pins what the command prints: a JSON topology with its fault
// schedule and CHI retry, its -describe export, a load point on each
// fabric and a sweep, and each failure.
func TestCLI(t *testing.T) {
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "bad.json"), []byte(`{"name":"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	const point = " -nodes 8 -warmup 100 -window 500"
	clitest.Run(t, tmp, []clitest.Case{
		{Name: "faults", Args: "-config ../../examples/topologies/ai-mini-faults.json"},
		{Name: "describe", Args: "-config ../../examples/topologies/ai-mini.json -describe -cycles 2000"},
		{Name: "multiring", Args: "-fabric multiring" + point},
		{Name: "halfring", Args: "-fabric halfring" + point},
		{Name: "chiplets", Args: "-fabric chiplets" + point},
		{Name: "ring", Args: "-fabric ring" + point},
		{Name: "hub", Args: "-fabric hub" + point + " -rate 0.9"},
		{Name: "mesh-sweep", Args: "-fabric mesh -sweep" + point},
		{Name: "missing-config", Args: "-config $TMP/none.json", Code: 1, Stderr: "no such file"},
		{Name: "malformed-config", Args: "-config $TMP/bad.json", Code: 1, Stderr: "config"},
		{Name: "unknown-fabric", Args: "-fabric torus", Code: 2, Stderr: `unknown fabric "torus"`},
		{Name: "unknown-flag", Args: "-faults x.json", Code: 2, Stderr: "flag provided but not defined"},
		{Name: "help", Args: "-h", Stderr: "-describe"},
	}, run)
}
