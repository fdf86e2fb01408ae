package mem

import (
	"testing"

	"chipletnoc/internal/chi"
)

// TestMultiBeatRead checks that a transfer wider than one beat returns
// the right number of data flits and that the requester-side reassembly
// contract (count Beats() arrivals) holds.
func TestMultiBeatRead(t *testing.T) {
	net, req, ctl := buildMemRig(t, Config{AccessCycles: 10, BytesPerCycle: 1024, QueueDepth: 16})
	m := &chi.Message{Op: chi.ReadNoSnp, Addr: 0x1000, Requester: req.Node(), Size: 2 * chi.BeatBytes}
	req.pending = append(req.pending, m)
	req.dst = ctl.Node()
	run(net, 500)
	// The tracker completes once; the controller emitted 2 beats.
	if len(req.done) != 1 {
		t.Fatalf("completions %d", len(req.done))
	}
	if ctl.BytesServed != uint64(2*chi.BeatBytes) {
		t.Fatalf("BytesServed = %d", ctl.BytesServed)
	}
}

// TestMultiBeatWriteFlow verifies the full CHI write flow for a burst:
// request -> DBIDResp -> 2 data beats -> Comp.
func TestMultiBeatWriteFlow(t *testing.T) {
	net, req, ctl := buildMemRig(t, Config{AccessCycles: 10, BytesPerCycle: 1024, QueueDepth: 16})
	m := &chi.Message{Op: chi.WriteNoSnp, Addr: 0x2000, Requester: req.Node(), Size: 2 * chi.BeatBytes}
	req.pending = append(req.pending, m)
	req.dst = ctl.Node()
	run(net, 500)
	if len(req.done) != 1 {
		t.Fatalf("completions %d", len(req.done))
	}
	if ctl.Writes != 1 {
		t.Fatalf("Writes = %d", ctl.Writes)
	}
	if ctl.BytesServed != uint64(2*chi.BeatBytes) {
		t.Fatalf("BytesServed = %d", ctl.BytesServed)
	}
	// No stranded burst state.
	if ctl.bursts.Len() != 0 || ctl.landed.Len() != 0 {
		t.Fatalf("stranded write state: open=%d beats=%d", ctl.bursts.Len(), ctl.landed.Len())
	}
}

// TestInterleavedWriteBursts drives two concurrent write bursts and makes
// sure out-of-order beat arrival per transaction is handled.
func TestInterleavedWriteBursts(t *testing.T) {
	net, req, ctl := buildMemRig(t, Config{AccessCycles: 5, BytesPerCycle: 2048, QueueDepth: 16})
	for i := 0; i < 4; i++ {
		m := &chi.Message{Op: chi.WriteNoSnp, Addr: uint64(0x3000 + i*512), Requester: req.Node(), Size: 2 * chi.BeatBytes}
		req.pending = append(req.pending, m)
	}
	req.dst = ctl.Node()
	run(net, 1000)
	if len(req.done) != 4 {
		t.Fatalf("completions %d/4", len(req.done))
	}
	if ctl.Writes != 4 {
		t.Fatalf("Writes = %d", ctl.Writes)
	}
}

// TestTokenAccountingBySize: a big transfer must consume proportionally
// more bandwidth tokens than a small one.
func TestTokenAccountingBySize(t *testing.T) {
	serve := func(size int, n int) uint64 {
		net, req, ctl := buildMemRig(t, Config{AccessCycles: 1, BytesPerCycle: 64, QueueDepth: 64})
		for i := 0; i < n; i++ {
			m := &chi.Message{Op: chi.ReadNoSnp, Addr: uint64(i) * uint64(size), Requester: req.Node(), Size: int32(size)}
			req.pending = append(req.pending, m)
		}
		req.dst = ctl.Node()
		start := net.Ticks()
		for net.Ticks()-start < 50000 && len(req.done) < n {
			run(net, 10)
		}
		if len(req.done) != n {
			t.Fatalf("completed %d/%d", len(req.done), n)
		}
		return net.Ticks() - start
	}
	small := serve(64, 32)
	big := serve(512, 32)
	// 512 B transfers move 8x the bytes through a 64 B/cycle token
	// bucket; service must take several times longer.
	if big < small*3 {
		t.Fatalf("big=%d small=%d; token accounting ignores size", big, small)
	}
}
