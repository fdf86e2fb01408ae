// Checkpoint file framing: a checkpoint is one durable envelope around
// the versioned snapshot header, an opaque caller blob (callers store
// their own progress there — spec, latency digest, metrics carry-over),
// and the full network snapshot. Resume requires rebuilding the identical
// network first; the header's topology hash enforces that. Every system
// type (soc builds, config-file builds) layers its checkpoint API on
// these functions, so the file format is identical everywhere.
//
// The reader checks the envelope's one CRC32-C, which covers every byte
// after it, before decoding a single field, so a truncated, torn or
// bit-rotted checkpoint surfaces as sim.ErrCorruptSnapshot and never
// reaches the state walk.
package noc

import (
	"bytes"
	"fmt"
	"io"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/sim"
)

// MaxCheckpointExtra bounds the caller blob in a checkpoint (64 MiB).
const MaxCheckpointExtra = 64 << 20

// MaxCheckpointBytes bounds a whole checkpoint file (1 GiB) so a hostile
// resume upload cannot ask for unbounded memory.
const MaxCheckpointBytes = 1 << 30

// WriteCheckpoint serializes the sealed header + extra + network state
// to w.
func WriteCheckpoint(w io.Writer, net *Network, extra []byte) error {
	data, err := EncodeCheckpoint(net, extra)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// EncodeCheckpoint is WriteCheckpoint for callers that want the bytes:
// the checkpoint is built once, in a buffer sized from the network's
// previous one, sealed where it lies and handed over — the result is the
// caller's to keep.
func EncodeCheckpoint(net *Network, extra []byte) ([]byte, error) {
	if len(extra) > MaxCheckpointExtra {
		return nil, fmt.Errorf("noc: checkpoint extra blob of %d bytes exceeds limit", len(extra))
	}
	// A run's checkpoints grow slowly (latency samples); an eighth of
	// slack holds the next few, and a first one grows from 64 KiB. The
	// envelope header is reserved up front, so sealing copies nothing.
	size := len(extra) + max(net.lastCheckpoint+net.lastCheckpoint/8, 64<<10)
	e := sim.NewEncoderOn(make([]byte, durable.SealHeaderSize, size))
	sim.WriteSnapshotHeader(e, sim.SnapshotHeader{
		Version:  sim.SnapshotVersion,
		TopoHash: net.TopoHash(),
		Cycle:    net.Ticks(),
	})
	e.PutBytes(extra)
	if err := net.SnapState(sim.Saving(e)); err != nil {
		return nil, err
	}
	net.lastCheckpoint = e.Len() - len(extra)
	return durable.SealInPlace(e.Data()), nil
}

// OpenCheckpoint verifies a checkpoint's envelope and reads its header,
// returning a decoder positioned at the extra blob. A checkpoint from
// before the envelope (version 6 and older open with the header itself)
// is refused by the version it names. Every failure satisfies
// errors.Is(err, sim.ErrCorruptSnapshot).
func OpenCheckpoint(data []byte) (sim.SnapshotHeader, *sim.Decoder, error) {
	payload, err := durable.Unseal(data)
	if err != nil {
		err = fmt.Errorf("snapshot: %w: %w", err, sim.ErrCorruptSnapshot)
		if bytes.HasPrefix(data, []byte(sim.SnapshotMagic)) {
			if _, herr := sim.ReadSnapshotHeader(sim.NewDecoder(data)); herr != nil {
				err = herr
			}
		}
		return sim.SnapshotHeader{}, nil, err
	}
	d := sim.NewDecoder(payload)
	h, err := sim.ReadSnapshotHeader(d)
	return h, d, err
}

// ReadCheckpoint restores a checkpoint into the freshly built net and
// returns the caller blob. All input is treated as untrusted: the
// envelope's checksum is verified before anything is decoded, so net is
// never mutated by damaged bytes. Integrity failures satisfy
// errors.Is(err, sim.ErrCorruptSnapshot).
func ReadCheckpoint(r io.Reader, net *Network) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxCheckpointBytes+1))
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data, net)
}

// DecodeCheckpoint is ReadCheckpoint for callers that already hold the
// bytes; data is only read.
func DecodeCheckpoint(data []byte, net *Network) ([]byte, error) {
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("noc: checkpoint exceeds %d bytes", MaxCheckpointBytes)
	}
	h, d, err := OpenCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if want := net.TopoHash(); h.TopoHash != want {
		return nil, fmt.Errorf("noc: checkpoint topology %#x does not match built system %#x", h.TopoHash, want)
	}
	extra := append([]byte(nil), d.Bytes(MaxCheckpointExtra)...)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := net.SnapState(sim.Loading(d)); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("noc: %d trailing bytes after checkpoint: %w", d.Remaining(), sim.ErrCorruptSnapshot)
	}
	if got := net.Ticks(); got != h.Cycle {
		return nil, fmt.Errorf("noc: restored cycle %d does not match header %d: %w", got, h.Cycle, sim.ErrCorruptSnapshot)
	}
	net.lastCheckpoint = len(data) - len(extra)
	return extra, nil
}
