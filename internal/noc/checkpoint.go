// Checkpoint file framing: a checkpoint is the versioned snapshot
// header, an opaque caller blob (callers store their own progress there
// — spec, latency digest, metrics carry-over), and the full network
// snapshot, each sealed with a CRC32-C, the whole file closed by a
// length+checksum trailer. Resume requires rebuilding the identical
// network first; the header's topology hash enforces that. Every system
// type (soc builds, config-file builds) layers its checkpoint API on
// these two functions, so the file format is identical everywhere.
//
// The reader proves the file complete and untampered (trailer length +
// whole-file CRC) before decoding a single field, so a truncated, torn
// or bit-rotted checkpoint surfaces as sim.ErrCorruptSnapshot and never
// reaches the state walk. The per-section seals then localize which part
// was damaged for diagnostics.
package noc

import (
	"fmt"
	"io"

	"chipletnoc/internal/sim"
)

// MaxCheckpointExtra bounds the caller blob in a checkpoint (64 MiB).
const MaxCheckpointExtra = 64 << 20

// MaxCheckpointBytes bounds a whole checkpoint file (1 GiB) so a hostile
// resume upload cannot ask for unbounded memory.
const MaxCheckpointBytes = 1 << 30

// WriteCheckpoint serializes sealed header + extra + network state to w,
// closed by the length+checksum trailer.
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
// previous one, and handed over — the result is the caller's to keep.
func EncodeCheckpoint(net *Network, extra []byte) ([]byte, error) {
	if len(extra) > MaxCheckpointExtra {
		return nil, fmt.Errorf("noc: checkpoint extra blob of %d bytes exceeds limit", len(extra))
	}
	// A run's checkpoints grow slowly (latency samples); an eighth of
	// slack holds the next few, and a first one grows from 64 KiB.
	e := sim.NewEncoderSize(len(extra) + max(net.lastCheckpoint+net.lastCheckpoint/8, 64<<10))
	sim.WriteSnapshotHeader(e, sim.SnapshotHeader{
		Version:  sim.SnapshotVersion,
		TopoHash: net.TopoHash(),
		Cycle:    net.Ticks(),
	})
	exStart := e.Mark()
	e.PutBytes(extra)
	e.SealSection(exStart)
	stStart := e.Mark()
	if err := net.SnapState(sim.Saving(e)); err != nil {
		return nil, err
	}
	e.SealSection(stStart)
	sim.WriteSnapshotTrailer(e)
	net.lastCheckpoint = e.Len() - len(extra)
	return e.Data(), nil
}

// ReadCheckpoint restores a checkpoint into the freshly built net and
// returns the caller blob. All input is treated as untrusted: the
// trailer and whole-file checksum are verified before anything is
// decoded, so net is never mutated by damaged bytes. Integrity failures
// satisfy errors.Is(err, sim.ErrCorruptSnapshot).
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
	payload, ferr := sim.VerifySnapshotFrame(data)
	if ferr != nil {
		// Old-format (pre-v3) files have no trailer; parsing the header
		// turns "missing trailer" into the more useful "unsupported
		// snapshot version N" for them. Both paths wrap ErrCorruptSnapshot.
		if _, herr := sim.ReadSnapshotHeader(sim.NewDecoder(data)); herr != nil {
			return nil, herr
		}
		return nil, ferr
	}
	d := sim.NewDecoder(payload)
	h, err := sim.ReadSnapshotHeader(d)
	if err != nil {
		return nil, err
	}
	if want := net.TopoHash(); h.TopoHash != want {
		return nil, fmt.Errorf("noc: checkpoint topology %#x does not match built system %#x", h.TopoHash, want)
	}
	exStart := d.Mark()
	extra := append([]byte(nil), d.Bytes(MaxCheckpointExtra)...)
	d.VerifySection(exStart, "extra")
	if err := d.Err(); err != nil {
		return nil, err
	}
	stStart := d.Mark()
	if err := net.SnapState(sim.Loading(d)); err != nil {
		return nil, err
	}
	d.VerifySection(stStart, "state")
	if err := d.Err(); err != nil {
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
