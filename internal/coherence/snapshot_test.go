package coherence

import (
	"bytes"
	"testing"

	"chipletnoc/internal/noc"
)

// TestDirectoryRestoreKeepsLinesApart restores a directory that tracks
// the line at address 0 — the zero key, which a loading walk must not
// mistake for an entry it has already built. Every restored line is its
// own object with its own state, and the restored network writes the
// checkpoint it was given.
func TestDirectoryRestoreKeepsLinesApart(t *testing.T) {
	want := map[uint64]State{0: Modified, 64: Shared, 128: Exclusive, 192: Invalid}
	a := buildRig(t)
	for addr, st := range want {
		a.dir.SetLine(addr, st, a.cores[int(addr/64)%2].Node())
	}
	var ckpt bytes.Buffer
	if err := noc.WriteCheckpoint(&ckpt, a.net, nil); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	b := buildRig(t)
	if _, err := noc.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), b.net); err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	for addr, st := range want {
		if got := b.dir.LineState(addr); got != st {
			t.Errorf("restored line %#x is %v, want %v", addr, got, st)
		}
	}
	var again bytes.Buffer
	if err := noc.WriteCheckpoint(&again, b.net, nil); err != nil {
		t.Fatalf("WriteCheckpoint after restore: %v", err)
	}
	if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
		t.Fatalf("restored directory re-encodes differently (%d bytes, wrote %d)", again.Len(), ckpt.Len())
	}

	// Lines are mutated in place: a read of one must not move another.
	b.cores[1].Read(0)
	b.run(500)
	if got := b.dir.LineState(128); got != Exclusive {
		t.Errorf("reading line 0 moved line 128 to %v", got)
	}
}
