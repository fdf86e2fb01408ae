package soc

import (
	"testing"
	"unsafe"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
)

// TestWalkedObjectSizes pins the two objects a loaded system holds tens
// of thousands of. Their integer fields are as narrow as their stated
// bounds allow (node IDs, ring positions and sizes in 32 bits, bridge
// crossings in 16, kinds, directions and interface slots in 8) and are
// ordered widest first, so a flit is 80 bytes and a message 48 with no
// padding: widening any narrowed field back to int, or an order that
// pads, grows one of them past its pin.
func TestWalkedObjectSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(noc.Flit{}); got != 80 {
		t.Errorf("noc.Flit is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(chi.Message{}); got != 48 {
		t.Errorf("chi.Message is %d bytes, want 48", got)
	}
}
