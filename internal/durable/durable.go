// Package durable is the crash-safety layer under every file the
// daemon and the CLI persist: atomic replacement (write to a temp file,
// fsync it, rename over the target, fsync the parent directory) and the
// one checksummed "sealed" envelope every stored byte is verified by —
// job records and cache entries, whose JSON cannot detect bit rot on its
// own, and checkpoints.
//
// The write protocol guarantees that after a crash at ANY instruction a
// reader finds either the complete previous version or the complete new
// version of the file, never a mixture; a leftover *.tmp is the only
// possible debris and is harmless to remove. The chaos hooks (see
// chaos.go) let tests crash the process at each protocol step and
// inject short or bit-flipping writes to prove exactly that.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// ErrCorruptFile marks a sealed file whose envelope failed verification:
// truncation, bad magic, length mismatch, checksum mismatch.
var ErrCorruptFile = errors.New("durable: corrupt or truncated file")

// castagnoli is the CRC32-C table; CRC32-C has hardware support on
// amd64/arm64, so sealing costs about a cycle a byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// TmpSuffix is appended to a file's path while its replacement is being
// staged; recovery scans may delete any file wearing it.
const TmpSuffix = ".tmp"

// WriteFile atomically replaces path with data: the bytes are staged in
// path+TmpSuffix, fsynced, renamed over path, and the parent directory
// is fsynced so the rename itself survives a power cut. On error the
// temp file is removed and the previous contents of path are untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	w := wrapWriter(f)
	n, err := w.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	CrashPoint("tmp-written")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: staging %s: %w", tmp, err)
	}
	CrashPoint("tmp-synced")
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	CrashPoint("renamed")
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a just-renamed entry is on disk.
// Filesystems that cannot fsync directories (EINVAL/ENOTSUP) are
// tolerated: the rename is still atomic, just not yet durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("durable: fsync %s: %w", dir, err)
	}
	return nil
}

// ReadFile reads a whole file, routed through the chaos read hook so
// tests can simulate on-disk bit rot.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return wrapRead(data), nil
}

// sealMagic opens every sealed envelope; the newline keeps a sealed
// file from ever parsing as the JSON it wraps.
const sealMagic = "NOCDUR1\n"

// SealHeaderSize is the envelope ahead of the payload: magic, u32
// payload length, u32 CRC32-C. A sealed payload of n bytes takes
// SealHeaderSize+n.
const SealHeaderSize = len(sealMagic) + 4 + 4

// SealInPlace seals the payload buf[SealHeaderSize:] where it lies: it
// writes the envelope over the SealHeaderSize bytes the caller reserved
// at the front of buf and returns buf, copying nothing.
func SealInPlace(buf []byte) []byte {
	payload := buf[SealHeaderSize:]
	copy(buf, sealMagic)
	binary.LittleEndian.PutUint32(buf[len(sealMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(sealMagic)+4:], crc32c(payload))
	return buf
}

// Seal wraps payload in a self-verifying envelope: magic, payload
// length, CRC32-C, payload. Unseal rejects any damage to any byte.
func Seal(payload []byte) []byte {
	return SealInPlace(append(make([]byte, SealHeaderSize, SealHeaderSize+len(payload)), payload...))
}

// Unseal verifies a sealed envelope and returns its payload. Every
// failure wraps ErrCorruptFile.
func Unseal(data []byte) ([]byte, error) {
	if len(data) < SealHeaderSize {
		return nil, fmt.Errorf("%d bytes is shorter than the %d-byte envelope: %w",
			len(data), SealHeaderSize, ErrCorruptFile)
	}
	if string(data[:len(sealMagic)]) != sealMagic {
		return nil, fmt.Errorf("bad envelope magic: %w", ErrCorruptFile)
	}
	n := binary.LittleEndian.Uint32(data[len(sealMagic):])
	payload := data[SealHeaderSize:]
	if uint64(n) != uint64(len(payload)) {
		return nil, fmt.Errorf("envelope claims %d payload bytes, file has %d: %w",
			n, len(payload), ErrCorruptFile)
	}
	want := binary.LittleEndian.Uint32(data[len(sealMagic)+4:])
	if got := crc32c(payload); got != want {
		return nil, fmt.Errorf("payload checksum %#08x does not match envelope %#08x: %w",
			got, want, ErrCorruptFile)
	}
	return payload, nil
}

// WriteSealed atomically writes payload wrapped in a sealed envelope.
func WriteSealed(path string, payload []byte, perm os.FileMode) error {
	return WriteFile(path, Seal(payload), perm)
}

// ReadSealed reads and verifies a sealed file, returning the payload.
func ReadSealed(path string) ([]byte, error) {
	data, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Unseal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
