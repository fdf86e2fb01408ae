package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte(`{"id":"job-3"}`), bytes.Repeat([]byte{0xA5}, 4096)} {
		got, err := Unseal(Seal(payload))
		if err != nil {
			t.Fatalf("payload %d bytes: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %d bytes: round-trip mismatch", len(payload))
		}
		// Sealing a reserved buffer where it lies gives the same bytes.
		if !bytes.Equal(SealInPlace(append(make([]byte, SealHeaderSize), payload...)), Seal(payload)) {
			t.Fatalf("payload %d bytes: SealInPlace differs from Seal", len(payload))
		}
	}
}

// FuzzUnseal: whatever Unseal rejects wraps ErrCorruptFile, and whatever
// it accepts is exactly an envelope — sealing the payload it returned
// gives back the input, byte for byte.
func FuzzUnseal(f *testing.F) {
	f.Add(Seal([]byte(`{"id":"job-3"}`)))
	f.Add(Seal(nil))
	f.Add([]byte(sealMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Unseal(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("rejection %v does not wrap ErrCorruptFile", err)
			}
			return
		}
		if again := Seal(payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that re-seal to %d different ones", len(data), len(again))
		}
	})
}

// TestUnsealRejectsDamage: every truncation and every flipped byte of a
// sealed envelope must yield ErrCorruptFile.
func TestUnsealRejectsDamage(t *testing.T) {
	sealed := Seal([]byte(`{"spec":"payload under test"}`))
	for n := 0; n < len(sealed); n++ {
		if _, err := Unseal(sealed[:n]); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptFile", n, err)
		}
	}
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x08
		if _, err := Unseal(mut); !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("flipped byte %d: err = %v, want ErrCorruptFile", i, err)
		}
	}
	// Extra bytes after the payload are damage too.
	if _, err := Unseal(append(append([]byte(nil), sealed...), 0)); !errors.Is(err, ErrCorruptFile) {
		t.Fatal("trailing byte was accepted")
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	want := []byte("first version")
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %q, %v; want %q", got, err, want)
	}
	// Replacement leaves no temp debris.
	if _, err := os.Stat(path + TmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileFailurePreservesOld: when the write faults partway, the
// previous version of the target must survive untouched and the temp
// file must be cleaned up.
func TestWriteFileFailurePreservesOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	old := []byte("previous complete version")
	if err := WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	SetWriterWrap(func(w io.Writer) io.Writer { return &FailingWriter{W: w, Limit: 10} })
	defer SetWriterWrap(nil)
	err := WriteFile(path, []byte("replacement that dies after ten bytes"), 0o644)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(got, old) {
		t.Fatalf("old version damaged: %q, %v", got, rerr)
	}
	if _, serr := os.Stat(path + TmpSuffix); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("temp file not cleaned up after fault: %v", serr)
	}
}

// TestWriteFileDetectsShortWrite: a transport that silently truncates
// writes (n < len(p), err == nil) must be caught, not persisted.
func TestWriteFileDetectsShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	SetWriterWrap(func(w io.Writer) io.Writer { return &ShortWriter{W: w, Max: 7} })
	defer SetWriterWrap(nil)
	err := WriteFile(path, []byte("twenty-plus bytes of payload"), 0o644)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("target exists after failed staging: %v", serr)
	}
}

// TestFlippingWriterFlipsExactlyOneByte, and the seal catches it
// end-to-end through WriteSealed/ReadSealed.
func TestFlippingWriterFlipsExactlyOneByte(t *testing.T) {
	var buf bytes.Buffer
	fw := &FlippingWriter{W: &buf, Offset: 5, Mask: 0x01}
	src := []byte("0123456789")
	// Two writes so the flip offset lands inside the second chunk too.
	fw.Write(src[:3])
	fw.Write(src[3:])
	diff := 0
	for i, b := range buf.Bytes() {
		if b != src[i] {
			diff++
			if i != 5 || b != src[i]^0x01 {
				t.Fatalf("wrong byte flipped: index %d, %#x -> %#x", i, src[i], b)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}

	path := filepath.Join(t.TempDir(), "record.job")
	SetWriterWrap(func(w io.Writer) io.Writer { return &FlippingWriter{W: w, Offset: 20, Mask: 0x80} })
	err := WriteSealed(path, []byte(`{"id":"job-1","cycle":12345}`), 0o644)
	SetWriterWrap(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSealed(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("bit-rotted sealed file: err = %v, want ErrCorruptFile", err)
	}
}

// TestReadMangleSimulatesBitRot: damage on the read path is equally
// caught by the envelope.
func TestReadMangleSimulatesBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "record.job")
	if err := WriteSealed(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	SetReadMangle(func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[len(mut)-1] ^= 0x02
		return mut
	})
	defer SetReadMangle(nil)
	if _, err := ReadSealed(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("read-side rot: err = %v, want ErrCorruptFile", err)
	}
}

// TestCrashPoints re-executes the test binary with NOCDUR_CRASH armed at
// each protocol step and asserts (a) the child exits with CrashExitCode,
// and (b) the torn state it leaves is exactly what the protocol
// promises: before the rename the old version is intact; after it the
// new version is complete. Either way a reader never sees a mixture.
func TestCrashPoints(t *testing.T) {
	if os.Getenv("NOCDUR_CRASH_CHILD") == "1" {
		// Child mode: overwrite the target and (absent a crash) exit 0.
		path := os.Getenv("NOCDUR_CRASH_PATH")
		if err := WriteFile(path, []byte("new complete version"), 0o644); err != nil {
			t.Fatalf("child write: %v", err)
		}
		return
	}
	for _, tc := range []struct {
		point   string
		wantNew bool // target holds the new version after the crash
	}{
		{"tmp-written", false},
		{"tmp-synced", false},
		{"renamed", true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.bin")
			if err := os.WriteFile(path, []byte("old complete version"), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashPoints$")
			cmd.Env = append(os.Environ(),
				"NOCDUR_CRASH_CHILD=1",
				"NOCDUR_CRASH_PATH="+path,
				CrashEnv+"="+tc.point,
			)
			out, err := cmd.CombinedOutput()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != CrashExitCode {
				t.Fatalf("child err = %v (output %q), want exit code %d", err, out, CrashExitCode)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("target unreadable after crash at %s: %v", tc.point, rerr)
			}
			want := "old complete version"
			if tc.wantNew {
				want = "new complete version"
			}
			if string(got) != want {
				t.Fatalf("crash at %s: target %q, want %q", tc.point, got, want)
			}
		})
	}
}

// TestCrashPointNthHit: "point:2" survives the first hit and fires on
// the second — how the e2e harness crashes mid-run rather than on the
// first checkpoint.
func TestCrashPointNthHit(t *testing.T) {
	if os.Getenv("NOCDUR_CRASH_CHILD") == "1" {
		path := os.Getenv("NOCDUR_CRASH_PATH")
		for i := 0; i < 3; i++ {
			if err := WriteFile(path, []byte("version"), 0o644); err != nil {
				t.Fatalf("child write %d: %v", i, err)
			}
		}
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashPointNthHit$")
	cmd.Env = append(os.Environ(),
		"NOCDUR_CRASH_CHILD=1",
		"NOCDUR_CRASH_PATH="+filepath.Join(dir, "f"),
		CrashEnv+"=renamed:2",
	)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != CrashExitCode {
		t.Fatalf("child err = %v (output %q), want exit code %d", err, out, CrashExitCode)
	}
	if !bytes.Contains(out, []byte(`crash point "renamed" fired (hit 2)`)) {
		t.Fatalf("child did not report second-hit crash: %q", out)
	}
}
