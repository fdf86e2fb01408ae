package noc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/sim"
)

// buildFuzzNet is buildSnapNet without the queued traffic, usable from
// both *testing.T and *testing.F; identical calls build identical
// networks (same topology hash).
func buildFuzzNet(tb testing.TB) (*Network, *source, *source) {
	tb.Helper()
	net := NewNetwork("snap")
	v := net.AddRing(8, true)
	h := net.AddRing(8, true)
	stA := v.AddStation(0)
	stBrV := v.AddStation(4)
	stBrH := h.AddStation(0)
	stB := h.AddStation(4)
	a := newSource(tb, net, stA, "a")
	b := newSource(tb, net, stB, "b")
	NewRBRGL1(net, "br", DefaultRBRGL1Config(), stBrV, stBrH)
	net.MustFinalize()
	return net, a, b
}

// checkpointBytes produces one real mid-flight checkpoint of the
// two-ring crossing, plus a fresh twin network to restore into.
func checkpointBytes(t *testing.T) []byte {
	t.Helper()
	net, _, _ := buildSnapNet(t, 50)
	runCycles(net, 40)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, net, []byte("extra blob")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointRejectsTruncation is the headline robustness property:
// a valid checkpoint truncated at EVERY byte offset must be rejected
// with sim.ErrCorruptSnapshot — no panic, no partial restore. Because
// the envelope (length + CRC of everything after it) is verified before
// any field is decoded, the target network is never touched, so one twin
// suffices for all offsets.
func TestCheckpointRejectsTruncation(t *testing.T) {
	data := checkpointBytes(t)
	twin, _, _ := buildSnapNet(t, 50)
	for n := 0; n < len(data); n++ {
		_, err := ReadCheckpoint(bytes.NewReader(data[:n]), twin)
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", n, len(data))
		}
		if !errors.Is(err, sim.ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d bytes: err %v does not wrap ErrCorruptSnapshot", n, err)
		}
	}
	if twin.Ticks() != 0 {
		t.Fatalf("twin network was mutated by rejected input (ticks %d)", twin.Ticks())
	}
}

// TestCheckpointRejectsBitRot flips every byte of the file — envelope
// and payload alike — and requires ErrCorruptSnapshot each time. The
// envelope's one CRC32-C catches all single-byte damage.
func TestCheckpointRejectsBitRot(t *testing.T) {
	data := checkpointBytes(t)
	twin, _, _ := buildSnapNet(t, 50)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		_, err := ReadCheckpoint(bytes.NewReader(mut), twin)
		if err == nil {
			t.Fatalf("flipped byte %d of %d was accepted", i, len(data))
		}
		if !errors.Is(err, sim.ErrCorruptSnapshot) {
			t.Fatalf("flipped byte %d: err %v does not wrap ErrCorruptSnapshot", i, err)
		}
	}
}

// TestCheckpointRejectsOldVersion requires a checkpoint of another
// version to be refused by an error that names it, so operators learn
// "old format" rather than "corrupt": files of versions 2 and 6, which
// open with the snapshot header itself, and a header of version 6 inside
// an intact envelope.
func TestCheckpointRejectsOldVersion(t *testing.T) {
	net, _, _ := buildSnapNet(t, 10)
	for _, v := range []uint16{2, 6} {
		e := sim.NewEncoder()
		sim.WriteSnapshotHeader(e, sim.SnapshotHeader{Version: v, TopoHash: net.TopoHash()})
		e.PutBytes([]byte("old extra"))
		for form, data := range map[string][]byte{"bare": e.Data(), "sealed": durable.Seal(e.Data())} {
			_, err := ReadCheckpoint(bytes.NewReader(data), net)
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("%s v%d checkpoint: err %v does not wrap ErrCorruptSnapshot", form, v, err)
			}
			if want := fmt.Sprintf("version %d", v); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s v%d rejection should name %q, got: %v", form, v, want, err)
			}
		}
	}
}

// TestCheckpointRejectsTrailingBytes: appending garbage after a valid
// checkpoint must fail the envelope check (it records the true length).
func TestCheckpointRejectsTrailingBytes(t *testing.T) {
	data := append(checkpointBytes(t), 0xEE, 0xFF)
	twin, _, _ := buildSnapNet(t, 50)
	_, err := ReadCheckpoint(bytes.NewReader(data), twin)
	if !errors.Is(err, sim.ErrCorruptSnapshot) {
		t.Fatalf("trailing bytes: err %v does not wrap ErrCorruptSnapshot", err)
	}
}

// FuzzReadCheckpoint throws arbitrary bytes at the full restore path.
// The invariant is absolute: any outcome but a clean error or a correct
// restore is a bug, and integrity failures must wrap ErrCorruptSnapshot.
func FuzzReadCheckpoint(f *testing.F) {
	seedNet, a, b := buildFuzzNet(f)
	for i := 0; i < 20; i++ {
		a.queue(seedNet.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
	}
	runCycles(seedNet, 30)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, seedNet, []byte("seed extra")); err != nil {
		f.Fatalf("seed checkpoint: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(sim.SnapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		net, _, _ := buildFuzzNet(t)
		extra, err := ReadCheckpoint(bytes.NewReader(data), net)
		if err != nil {
			return // rejected cleanly — the only requirement is no panic
		}
		// Accepted: it must have been a byte-faithful checkpoint.
		var rt bytes.Buffer
		if werr := WriteCheckpoint(&rt, net, extra); werr != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", werr)
		}
		if !bytes.Equal(rt.Bytes(), data) {
			t.Fatalf("accepted checkpoint does not round-trip: %d in, %d out", len(data), rt.Len())
		}
	})
}

// stateSection locates the network state in a checkpoint: everything
// after the envelope, the snapshot header and the length-prefixed extra
// blob.
func stateSection(tb testing.TB, ckpt []byte) (start, end int) {
	tb.Helper()
	_, d, err := OpenCheckpoint(ckpt)
	if err == nil {
		d.Bytes(MaxCheckpointExtra)
		err = d.Err()
	}
	if err != nil {
		tb.Fatalf("checkpoint of %d bytes has no state section: %v", len(ckpt), err)
	}
	return len(ckpt) - d.Remaining(), len(ckpt)
}

// TestRestoreRejectsWatchdogWithoutPeriod: a well-sealed checkpoint that
// arms the watchdog (budget > 0) with scan period 0 — a pair SetWatchdog
// never produces — used to restore cleanly and then divide by zero in
// the first cycleTail. It must be rejected as corrupt.
func TestRestoreRejectsWatchdogWithoutPeriod(t *testing.T) {
	const budget, period = 1000003, 777
	net, _, _ := buildSnapNet(t, 20)
	net.SetWatchdog(budget, period)
	runCycles(net, 30)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, net, nil); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	pair, patched := sim.NewEncoder(), sim.NewEncoder()
	pair.PutUvarint(budget)
	pair.PutUvarint(period)
	patched.PutUvarint(budget)
	patched.PutUvarint(0)
	at := bytes.Index(ckpt, pair.Data())
	if start, end := stateSection(t, ckpt); at < start || at+pair.Len() > end {
		t.Fatalf("watchdog fields not found in the state section (index %d)", at)
	}
	// The period's varint shrinks to one byte; resealing records the new
	// length.
	ckpt = append(append(ckpt[:at:at], patched.Data()...), ckpt[at+pair.Len():]...)

	twin, _, _ := buildSnapNet(t, 0)
	_, err := ReadCheckpoint(bytes.NewReader(durable.SealInPlace(ckpt)), twin)
	if err == nil {
		twin.Run(64) // integer divide by zero before the fix
		t.Fatal("checkpoint with watchdog budget > 0 and period 0 was accepted")
	}
	if !errors.Is(err, sim.ErrCorruptSnapshot) {
		t.Fatalf("err %v does not wrap ErrCorruptSnapshot", err)
	}
}

// restoreSeeds are the networks FuzzRestoreState mutates checkpoints of:
// the two-ring L1 crossing, and two dies over an RBRG-L2 with flits and
// credits on the link and the watchdog armed.
var restoreSeeds = []func(tb testing.TB, traffic int) *Network{
	func(tb testing.TB, traffic int) *Network {
		net, a, b := buildFuzzNet(tb)
		for i := 0; i < traffic; i++ {
			a.queue(net.NewFlit(a.Node(), b.Node(), KindData, LineBytes))
			b.queue(net.NewFlit(b.Node(), a.Node(), KindData, LineBytes))
		}
		return net
	},
	func(tb testing.TB, traffic int) *Network {
		net, srcs, dsts, _ := buildTwoDie(tb, DefaultRBRGL2Config())
		net.SetWatchdog(400, 0)
		for i := 0; i < traffic; i++ {
			srcs[0].queue(net.NewFlit(srcs[0].Node(), dsts[1].Node(), KindData, LineBytes))
			srcs[1].queue(net.NewFlit(srcs[1].Node(), dsts[0].Node(), KindData, LineBytes))
		}
		return net
	},
}

// FuzzRestoreState fuzzes the field decoder rather than the seal:
// FuzzReadCheckpoint's inputs die at the envelope's CRC almost always, so
// this one patches bytes inside the state section of a real checkpoint
// and reseals it, as an attacker who can write a resume file would.
// Whatever ReadCheckpoint then accepts must re-encode to exactly the
// bytes it was given — one walk makes that the natural round-trip
// property — and must run: a restored network that panics (or fails an
// index) 64 cycles later was not validated enough.
func FuzzRestoreState(f *testing.F) {
	var seeds [][]byte
	for _, build := range restoreSeeds {
		net := build(f, 20)
		runCycles(net, 30)
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, net, []byte("seed extra")); err != nil {
			f.Fatalf("seed checkpoint: %v", err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(1), uint32(70), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(0), uint32(200), []byte{2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint8(1), uint32(900), []byte{1})

	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		k := int(which) % len(seeds)
		data := append([]byte(nil), seeds[k]...)
		start, end := stateSection(t, data)
		copy(data[start+int(off)%(end-start):end], patch)
		durable.SealInPlace(data)

		net := restoreSeeds[k](t, 0)
		extra, err := ReadCheckpoint(bytes.NewReader(data), net)
		if err != nil {
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		var rt bytes.Buffer
		if werr := WriteCheckpoint(&rt, net, extra); werr != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", werr)
		}
		if !bytes.Equal(rt.Bytes(), data) {
			t.Fatalf("accepted checkpoint does not round-trip: %d in, %d out", len(data), rt.Len())
		}
		net.Run(64)
		_ = net.CheckConservation() // patched counters may not balance; it must not panic
	})
}
