package soc

import (
	"bytes"
	"testing"

	"chipletnoc/internal/noc"
)

// TestCheckpointRejectsWrongTopology proves the header's topology hash
// gate: a Server-CPU checkpoint must not restore into an AI-Processor.
func TestCheckpointRejectsWrongTopology(t *testing.T) {
	s := goldenServerBuild()
	s.Run(100)
	var buf bytes.Buffer
	if err := noc.WriteCheckpoint(&buf, s.Net, nil); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	a := goldenAIBuild()
	if _, err := a.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("AI system accepted a Server-CPU checkpoint")
	}
}

// TestCheckpointHostileBytes feeds truncations and bit flips of a real
// checkpoint to ReadCheckpoint: errors are fine, panics are not.
func TestCheckpointHostileBytes(t *testing.T) {
	s := goldenServerBuild()
	s.Run(500)
	var buf bytes.Buffer
	if err := noc.WriteCheckpoint(&buf, s.Net, []byte("extra")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	ckpt := buf.Bytes()

	for n := 0; n < len(ckpt); n += 101 {
		fresh := goldenServerBuild()
		if _, err := noc.ReadCheckpoint(bytes.NewReader(ckpt[:n]), fresh.Net); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", n)
		}
	}
	for pos := 30; pos < len(ckpt); pos += 997 {
		mut := append([]byte(nil), ckpt...)
		mut[pos] ^= 0xA5
		fresh := goldenServerBuild()
		_, _ = noc.ReadCheckpoint(bytes.NewReader(mut), fresh.Net)
	}
}

// TestSeedPerturbsStreams checks the Seed knob: zero preserves the
// historical RNG streams (the golden digests depend on that), any other
// value produces a different but still deterministic run.
func TestSeedPerturbsStreams(t *testing.T) {
	runWith := func(seed uint64) flitDigest {
		cfg := QuickAIConfig()
		cfg.Seed = seed
		a := BuildAIProcessor(cfg)
		latencies, latencyFNV := hashLatencies(a.Net)
		a.Run(1500)
		return digestNet(a.Net, latencies, latencyFNV)
	}
	zero1, zero2 := runWith(0), runWith(0)
	if zero1 != zero2 {
		t.Fatal("seed 0 runs are not deterministic")
	}
	seeded1, seeded2 := runWith(7), runWith(7)
	if seeded1 != seeded2 {
		t.Fatal("seeded runs are not deterministic")
	}
	if zero1 == seeded1 {
		t.Fatal("seed 7 did not perturb the run")
	}
}
