package baseline

import (
	"fmt"
	"testing"
)

// TestMultiRingPendingDrains: the adapter keeps a callback only for a
// flit that will arrive, so after a saturated run and a drain it holds
// none — with nil callbacks it never holds any.
func TestMultiRingPendingDrains(t *testing.T) {
	for _, withCallback := range []bool{false, true} {
		t.Run(fmt.Sprintf("callback=%v", withCallback), func(t *testing.T) {
			m := NewMultiRingChiplets(2, 8)
			var called uint64
			var done DeliverFunc
			if withCallback {
				done = func(uint64) { called++ }
			}
			saturate(m, 5000, done)
			if !withCallback && m.PendingCallbacks() != 0 {
				t.Fatalf("%d entries stored for nil callbacks", m.PendingCallbacks())
			}
			for i := 0; i < 20000 && m.Network().InFlight() > 0; i++ {
				m.Tick()
			}
			if left := m.Network().InFlight(); left != 0 {
				t.Fatalf("%d flits still in flight after the drain", left)
			}
			if got := m.PendingCallbacks(); got != 0 {
				t.Fatalf("%d callbacks still pending after the drain", got)
			}
			if pk, _ := m.Delivered(); withCallback && called != pk {
				t.Fatalf("%d callbacks ran for %d deliveries", called, pk)
			}
		})
	}
}

// TestMultiRingUnroutableKeepsNoCallback: with every bridge dead, a
// cross-die flit is accepted, counted dropped and never queued, so the
// adapter must not keep its callback waiting for an arrival.
func TestMultiRingUnroutableKeepsNoCallback(t *testing.T) {
	m := NewMultiRingChiplets(2, 4)
	for _, b := range m.Bridges() {
		if err := m.Network().FailBridge(b.Node()); err != nil {
			t.Fatal(err)
		}
	}
	called := false
	if !m.TrySend(0, 4, 64, func(uint64) { called = true }) {
		t.Fatal("unroutable send refused; the network accepts and drops it")
	}
	if got := m.PendingCallbacks(); got != 0 {
		t.Fatalf("%d callbacks kept for a flit that was dropped at the source", got)
	}
	// A same-die packet still goes through, callback and all.
	if !m.TrySend(0, 1, 64, func(uint64) { called = true }) {
		t.Fatal("same-die send refused")
	}
	for i := 0; i < 200 && !called; i++ {
		m.Tick()
	}
	if !called || m.PendingCallbacks() != 0 {
		t.Fatalf("same-die delivery: called=%v pending=%d", called, m.PendingCallbacks())
	}
	if m.Network().UnroutableDrops != 1 {
		t.Fatalf("UnroutableDrops = %d, want 1", m.Network().UnroutableDrops)
	}
}
