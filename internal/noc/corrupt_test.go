package noc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

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
// the frame (trailer + whole-file CRC) is verified before any field is
// decoded, the target network is never touched, so one twin suffices
// for all offsets.
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

// TestCheckpointRejectsBitRot flips every byte of the file — payload
// and trailer alike — and requires ErrCorruptSnapshot each time. The
// whole-file CRC32-C catches all single-byte damage.
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

// TestCheckpointRejectsOldVersion crafts a v2-era file — valid header
// shape, no seals, no trailer — and requires rejection that names the
// version, so operators learn "old format" rather than "corrupt".
func TestCheckpointRejectsOldVersion(t *testing.T) {
	net, _, _ := buildSnapNet(t, 10)
	e := sim.NewEncoder()
	for _, b := range []byte(sim.SnapshotMagic) {
		e.PutU8(b)
	}
	e.PutU16(2) // the pre-seal version
	e.PutU64(net.TopoHash())
	e.PutU64(0)
	e.PutBytes([]byte("old extra"))
	_, err := ReadCheckpoint(bytes.NewReader(e.Data()), net)
	if err == nil {
		t.Fatal("v2-era checkpoint was accepted")
	}
	if !errors.Is(err, sim.ErrCorruptSnapshot) {
		t.Fatalf("v2 rejection %v does not wrap ErrCorruptSnapshot", err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("v2 rejection should name the version, got: %v", err)
	}
}

// TestCheckpointRejectsTrailingBytes: appending garbage after a valid
// frame must fail frame verification (the trailer records the true
// length).
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

// stateSection locates the network-state section of a sealed checkpoint
// (after the 30-byte header and the length-prefixed, sealed extra blob,
// before the state seal and the 20-byte trailer).
func stateSection(tb testing.TB, ckpt []byte) (start, end int) {
	tb.Helper()
	const header, trailer = 30, 20
	if len(ckpt) < header+8+4+trailer {
		tb.Fatalf("checkpoint of %d bytes has no state section", len(ckpt))
	}
	extraLen := int(binary.LittleEndian.Uint32(ckpt[header:]))
	return header + 4 + extraLen + 4, len(ckpt) - trailer - 4
}

// reseal makes a checkpoint whose state section was edited well-sealed
// again — state-section CRC, then the length/CRC trailer — so the edit
// reaches the field decoder instead of dying at the frame check. It is
// what an attacker who can write a resume file does.
func reseal(tb testing.TB, ckpt []byte) []byte {
	tb.Helper()
	start, end := stateSection(tb, ckpt)
	out := append([]byte(nil), ckpt...)
	binary.LittleEndian.PutUint32(out[end:], sim.CRC32C(out[start:end]))
	payload := end + 4
	binary.LittleEndian.PutUint64(out[payload:], uint64(payload))
	binary.LittleEndian.PutUint32(out[payload+8:], sim.CRC32C(out[:payload]))
	return out
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
	// The period's varint shrinks to one byte; reseal reads the new length.
	ckpt = append(append(ckpt[:at:at], patched.Data()...), ckpt[at+pair.Len():]...)

	twin, _, _ := buildSnapNet(t, 0)
	_, err := ReadCheckpoint(bytes.NewReader(reseal(t, ckpt)), twin)
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
// FuzzReadCheckpoint's inputs die at the trailer CRC almost always, so
// this one patches bytes inside the state section of a real checkpoint
// and reseals it. Whatever ReadCheckpoint then accepts must re-encode to
// exactly the bytes it was given — one walk makes that the natural
// round-trip property — and must run: a restored network that panics
// (or fails an index) 64 cycles later was not validated enough.
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
		data = reseal(t, data)

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
