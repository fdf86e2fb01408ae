package serving

import (
	"reflect"
	"testing"
)

// TestSteadyStateMintsNothing: far past the saturation knee the watermark
// holds the batches in flight at their peak, so once that peak has been
// reached every batch's DAG is built from recycled commands and every
// CHI message is a recycled one. (Below the knee the peaks come later: at
// load 24 the message free-list still grows by one between cycles 60 000
// and 70 000.)
func TestSteadyStateMintsNothing(t *testing.T) {
	spec := quickSpec(t)
	spec.Loads = []float64{400}
	sys, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (cmds, msgs, reused uint64) {
		net := reflect.ValueOf(sys.Net).Elem()
		return sys.Orch.dag.minted, net.FieldByName("msgsMinted").Uint(), sys.Orch.dag.reused
	}
	sys.Net.Run(10000)
	cmds, msgs, reused := counts()
	sys.Net.Run(40000)
	cmdsAfter, msgsAfter, reusedAfter := counts()
	if cmdsAfter != cmds || msgsAfter != msgs {
		t.Errorf("cycles 10000-50000 minted %d commands and %d messages (%d and %d before)",
			cmdsAfter-cmds, msgsAfter-msgs, cmds, msgs)
	}
	if reusedAfter == reused {
		t.Error("no command was reused: batches did not complete")
	}
}

// warmServing builds the quick spec at its load of 4 req/kcycle, below
// the knee, with a backlog of 64 requests at cycle 0, and runs it past
// warm-up. The backlog grows the pending queue ahead and drives the
// batches in flight to the high watermark early, so the DAG free-list,
// the batches' request lists and the message free-list reach their peaks
// before anything is measured; a rarer peak of the fabric's own
// concurrency (a memory queue, an engine's done list) still grows its
// buffer once when it first comes.
func warmServing(tb testing.TB) *System {
	tb.Helper()
	sys, err := Build(quickSpec(tb), 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		sys.Orch.pending.Push(request{})
		sys.Orch.Admitted++
	}
	sys.Net.Run(60000)
	return sys
}

// TestWarmServingAllocatesNothing pins the orchestrator's per-batch path
// at zero allocations once warm: arrivals queue in a sized FIFO, every
// batch and command comes off the DAG free-list, expert selection
// shuffles a buffer the DAG owns, and an untraced stall edge formats
// nothing.
func TestWarmServingAllocatesNothing(t *testing.T) {
	sys := warmServing(t)
	before := sys.Orch.Completed
	// One measured run, so the count is exact, not an average.
	if n := testing.AllocsPerRun(1, func() { sys.Net.Run(20000) }); n != 0 {
		t.Errorf("%v allocations in 20000 warm cycles", n)
	}
	if sys.Orch.Completed == before {
		t.Error("no request completed while measured")
	}
}

// BenchmarkServingWarm is one cycle of a warmed serving run at load 4. It
// reports requests completed per cycle; with -benchmem, allocations per
// cycle, which TestWarmServingAllocatesNothing holds at zero.
func BenchmarkServingWarm(b *testing.B) {
	sys := warmServing(b)
	before := sys.Orch.Completed
	b.ResetTimer()
	sys.Net.Run(b.N)
	b.ReportMetric(float64(sys.Orch.Completed-before)/float64(b.N), "requests/cycle")
}
