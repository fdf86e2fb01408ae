package baseline

import (
	"fmt"
	"testing"
)

// sendLog gives every TrySend its own callback and remembers what became
// of the attempt: refused[i] and calls[i] for the i-th attempt.
type sendLog struct {
	refused []bool
	calls   []int
}

// offer makes one attempt; with callbacks off it passes nil, as a
// warm-up MeasureUniform does.
func (l *sendLog) offer(m *MultiRing, src, dst int, callbacks bool) {
	i := len(l.calls)
	l.calls = append(l.calls, 0)
	var done DeliverFunc
	if callbacks {
		done = func(uint64) { l.calls[i]++ }
	}
	l.refused = append(l.refused, !m.TrySend(src, dst, 64, done))
}

// check holds the log to the adapter's contract: a refused attempt's
// callback never runs, an accepted one's at most once, and the callbacks
// that ran are exactly the deliveries.
func (l *sendLog) check(t *testing.T, m *MultiRing, callbacks bool) {
	t.Helper()
	var ran, accepted uint64
	for i, n := range l.calls {
		switch {
		case l.refused[i] && n != 0:
			t.Fatalf("attempt %d was refused and its callback ran %d times", i, n)
		case n > 1:
			t.Fatalf("attempt %d: callback ran %d times", i, n)
		}
		if !l.refused[i] {
			accepted++
		}
		ran += uint64(n)
	}
	net := m.Network()
	if got := net.DeliveredFlits + net.DroppedFlits; accepted != got {
		t.Fatalf("%d attempts accepted, %d flits delivered or dropped", accepted, got)
	}
	if pk, _ := m.Delivered(); callbacks && ran != pk {
		t.Fatalf("%d callbacks ran for %d deliveries", ran, pk)
	} else if !callbacks && ran != 0 {
		t.Fatalf("%d callbacks ran, none was passed", ran)
	}
}

// drain ticks until nothing is in flight and checks that every flit came
// back to the free-list without its callback.
func drain(t *testing.T, m *MultiRing) {
	t.Helper()
	for i := 0; i < 20000 && m.Network().InFlight() > 0; i++ {
		m.Tick()
	}
	if left := m.Network().InFlight(); left != 0 {
		t.Fatalf("%d flits still in flight after the drain", left)
	}
	free, withMsg := m.FreeListCallbacks()
	if free == 0 || withMsg != 0 {
		t.Fatalf("%d of %d flits on the free-list still carry a callback", withMsg, free)
	}
}

// TestMultiRingPendingDrains: the callback rides its flit, so after a
// saturated run — most attempts refused — with a bridge killed under
// load and a drain, every callback has run exactly once per delivered
// packet, never for a refused attempt or a flit the dead bridge took, and
// no flit on the free-list still holds one.
func TestMultiRingPendingDrains(t *testing.T) {
	for _, withCallback := range []bool{false, true} {
		t.Run(fmt.Sprintf("callback=%v", withCallback), func(t *testing.T) {
			m := NewMultiRingChiplets(2, 8)
			var log sendLog
			n := m.Nodes()
			for cyc := 0; cyc < 5000; cyc++ {
				if cyc == 2500 {
					if err := m.Network().FailBridge(m.Bridges()[0].Node()); err != nil {
						t.Fatal(err)
					}
				}
				for src := 0; src < n; src++ {
					log.offer(m, src, (src+1+cyc%(n-1))%n, withCallback)
				}
				m.Tick()
			}
			drain(t, m)
			log.check(t, m, withCallback)
			net := m.Network()
			if net.FaultDrops == 0 {
				t.Fatal("the killed bridge held no flit: the case is not exercised")
			}
			refused := 0
			for _, r := range log.refused {
				if r {
					refused++
				}
			}
			if refused == 0 || refused == len(log.refused) {
				t.Fatalf("%d of %d attempts refused: want some of each", refused, len(log.refused))
			}
		})
	}
}

// TestMultiRingUnroutableKeepsNoCallback: with every bridge dead, a
// cross-die flit is accepted, counted dropped and never queued; its
// callback must go back to the free-list with it, never run.
func TestMultiRingUnroutableKeepsNoCallback(t *testing.T) {
	m := NewMultiRingChiplets(2, 4)
	for _, b := range m.Bridges() {
		if err := m.Network().FailBridge(b.Node()); err != nil {
			t.Fatal(err)
		}
	}
	var log sendLog
	log.offer(m, 0, 4, true)
	if log.refused[0] {
		t.Fatal("unroutable send refused; the network accepts and drops it")
	}
	if free, withMsg := m.FreeListCallbacks(); free != 1 || withMsg != 0 {
		t.Fatalf("after the drop: %d flits on the free-list, %d with a callback; want 1 and 0", free, withMsg)
	}
	// A same-die packet still goes through, callback and all.
	log.offer(m, 0, 1, true)
	if log.refused[1] {
		t.Fatal("same-die send refused")
	}
	drain(t, m)
	log.check(t, m, true)
	if log.calls[0] != 0 || log.calls[1] != 1 {
		t.Fatalf("callbacks ran %v times, want [0 1]", log.calls)
	}
	if m.Network().UnroutableDrops != 1 {
		t.Fatalf("UnroutableDrops = %d, want 1", m.Network().UnroutableDrops)
	}
}
