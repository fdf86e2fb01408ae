package traffic

import (
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
)

// warmRigs are closed-loop requesters against one memory controller:
// single-beat reads and writes, whose cycles are the tracker's Open,
// Settle and Complete, and four-beat writes, whose data bursts the
// controller reassembles in its burst table.
var warmRigs = []struct {
	name string
	cfg  RequesterConfig
}{
	{"open-settle-complete", RequesterConfig{Outstanding: 8, Rate: 1, ReadFraction: 0.5, LineBytes: 64, Stream: NewSeqStream(0, 64, 1<<20)}},
	{"write-bursts", RequesterConfig{Outstanding: 8, Rate: 1, ReadFraction: 0, LineBytes: 4 * chi.BeatBytes, Stream: NewSeqStream(0, 1024, 1<<20)}},
}

// warmRig builds a rig and runs it until its tables, queues and free
// lists have reached their working sizes; the latency histogram is
// grown ahead, as its samples are the one thing a run keeps.
func warmRig(tb testing.TB, cfg RequesterConfig) (*noc.Network, *Requester) {
	tb.Helper()
	net, req, _ := buildTrafficRig(tb, cfg)
	run(net, 3000)
	req.Latency.Grow(1 << 16)
	return net, req
}

// TestWarmRequesterAllocatesNothing pins the transaction path at zero
// allocations once warm: the tracker's table and the controller's burst
// table are sized, and every message and flit comes off a free list.
func TestWarmRequesterAllocatesNothing(t *testing.T) {
	for _, rig := range warmRigs {
		net, req := warmRig(t, rig.cfg)
		before := req.Completed
		// One measured run, so the count is exact, not an average.
		if n := testing.AllocsPerRun(1, func() { run(net, 1000) }); n != 0 {
			t.Errorf("%s: %v allocations in 1000 warm cycles", rig.name, n)
		}
		if req.Completed == before {
			t.Errorf("%s: no transaction completed while measured", rig.name)
		}
	}
}

// BenchmarkTrackerSettle is one cycle of a warmed rig: Settle retires the
// transactions whose completions arrived, the issue loop reopens their
// table slots, and the controller takes write bursts. It reports
// completions per cycle; with -benchmem, allocations per cycle, which
// TestWarmRequesterAllocatesNothing holds at zero.
func BenchmarkTrackerSettle(b *testing.B) {
	for _, rig := range warmRigs {
		b.Run(rig.name, func(b *testing.B) {
			net, req := warmRig(b, rig.cfg)
			before := req.Completed
			b.ResetTimer()
			run(net, b.N)
			b.ReportMetric(float64(req.Completed-before)/float64(b.N), "completions/cycle")
		})
	}
}
