// Checkpoint/resume of the AI die for the benchmark's checkpoint
// workload: thin wrappers over the shared noc checkpoint framing. Resume
// requires rebuilding the identical system first; the header's topology
// hash enforces that.
package soc

import (
	"io"

	"chipletnoc/internal/noc"
)

// WriteCheckpoint serializes the full system state; extra is an opaque
// caller blob returned verbatim by ReadCheckpoint.
func (a *AIProcessor) WriteCheckpoint(w io.Writer, extra []byte) error {
	return noc.WriteCheckpoint(w, a.Net, extra)
}

// ReadCheckpoint restores a checkpoint into this freshly built system
// and returns the caller blob.
func (a *AIProcessor) ReadCheckpoint(r io.Reader) ([]byte, error) {
	return noc.ReadCheckpoint(r, a.Net)
}
