package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"chipletnoc/internal/sim"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := New(10)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Cycle: sim.Cycle(i), Kind: Inject, FlitID: uint64(i + 1), Where: "a"})
	}
	ev := tr.Events()
	if len(ev) != 5 || tr.Len() != 5 {
		t.Fatalf("len = %d", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != sim.Cycle(i) {
			t.Fatalf("event %d at cycle %d", i, e.Cycle)
		}
	}
}

func TestTracerWrapsKeepingNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Cycle: sim.Cycle(i), Kind: Eject})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	if ev[0].Cycle != 6 || ev[3].Cycle != 9 {
		t.Fatalf("wrong window: %v..%v", ev[0].Cycle, ev[3].Cycle)
	}
	if tr.Total != 10 {
		t.Fatalf("Total = %d", tr.Total)
	}
}

func TestDumpByFlit(t *testing.T) {
	tr := New(10)
	tr.Record(Event{Cycle: 1, Kind: Inject, FlitID: 7, Where: "src"})
	tr.Record(Event{Cycle: 2, Kind: Inject, FlitID: 8, Where: "src"})
	tr.Record(Event{Cycle: 5, Kind: Deliver, FlitID: 7, Where: "dst", Detail: "done"})
	out := tr.Dump(7)
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("dump:\n%s", out)
	}
	if !strings.Contains(out, "deliver") || !strings.Contains(out, "done") {
		t.Fatalf("dump:\n%s", out)
	}
	all := tr.Dump(0)
	if strings.Count(all, "\n") != 3 {
		t.Fatalf("full dump:\n%s", all)
	}
}

func TestCountByKind(t *testing.T) {
	tr := New(10)
	tr.Record(Event{Kind: Deflect})
	tr.Record(Event{Kind: Deflect})
	tr.Record(Event{Kind: Swap})
	c := tr.CountByKind()
	if c[Deflect] != 2 || c[Swap] != 1 {
		t.Fatalf("counts: %v", c)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Inject; k <= Swap; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

func TestWrapPropertyNewestRetained(t *testing.T) {
	f := func(capRaw uint8, nRaw uint16) bool {
		capacity := int(capRaw%32) + 1
		n := int(nRaw % 200)
		tr := New(capacity)
		for i := 0; i < n; i++ {
			tr.Record(Event{Cycle: sim.Cycle(i)})
		}
		ev := tr.Events()
		want := n
		if want > capacity {
			want = capacity
		}
		if len(ev) != want {
			return false
		}
		// Events must be the newest `want`, in order.
		for i, e := range ev {
			if e.Cycle != sim.Cycle(n-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
