package chi_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/noctest"
	"chipletnoc/internal/traffic"
)

// The message free-list against whole systems: recycling changes no
// result, a pool that has warmed up mints nothing more, and a checkpoint
// taken with a non-empty pool resumes byte-identically.

// retried counts the transactions n's requesters re-issued.
func retried(n *noc.Network) (sum uint64) {
	for _, d := range n.Devices() {
		if r, ok := d.(*traffic.Requester); ok {
			re, _ := r.RetryStats()
			sum += re
		}
	}
	return sum
}

// fingerprint runs n for cycles and renders what it did: the network's
// counters, every delivery latency in order, and its checkpoint bytes.
func fingerprint(t *testing.T, n *noc.Network, cycles int) string {
	t.Helper()
	lat := fnv.New64a()
	n.RecordLatency(func(f *noc.Flit, c uint64) { fmt.Fprintf(lat, "%d|%d\n", f.ID, c) })
	n.Run(cycles)
	b, err := noc.EncodeCheckpoint(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := fnv.New64a()
	ck.Write(b)
	return fmt.Sprintf("inj=%d del=%d drop=%d defl=%d hops=%d lat=%x ckpt=%x(%dB)",
		n.InjectedFlits, n.DeliveredFlits, n.DroppedFlits, n.Deflections, n.TotalHops, lat.Sum64(), ck.Sum64(), len(b))
}

// msgPool reads a network's message free-list: its length and how many
// messages were minted and reused through it.
func msgPool(n *noc.Network) (free int, minted, reused uint64) {
	v := reflect.ValueOf(n).Elem()
	return v.FieldByName("freeMsgs").Len(), v.FieldByName("msgsMinted").Uint(), v.FieldByName("msgsReused").Uint()
}

// unpooled runs f with message recycling switched off.
func unpooled(f func()) {
	chi.SetRecycle(false)
	defer chi.SetRecycle(true)
	f()
}

// TestRecyclingChangesNothing runs each system with the free-list and
// again with every message freshly allocated and never released: the
// AI die, the saturated quad-die memory cores, the quad-die under
// spurious retries (anything slower than 300 cycles is re-issued, so
// transactions are re-sent while their first copy is still queued in a
// memory controller: the duplicates the ownership rule keeps retried
// requests away from the free-list for), a serving sweep and the
// layer-trace replay must come out identical.
func TestRecyclingChangesNothing(t *testing.T) {
	for _, c := range []struct {
		name, entry string
		cycles      int
	}{{"ai-die", "ai-die", 3000}, {"quad-die", "quad-die/saturated", 3000}, {"quad-die-retry", "quad-die/everything", 4000}} {
		t.Run(c.name, func(t *testing.T) {
			sys := noctest.Lookup(c.entry)
			n := sys.Build()
			got := fingerprint(t, n, c.cycles)
			if _, _, reused := msgPool(n); reused == 0 {
				t.Fatal("the pooled run reused no message")
			}
			if c.name == "quad-die-retry" && retried(n) == 0 {
				t.Fatal("the retry run re-issued nothing")
			}
			var want string
			unpooled(func() { want = fingerprint(t, sys.Build(), c.cycles) })
			if got != want {
				t.Errorf("recycling moved the run\npooled:   %s\nunpooled: %s", got, want)
			}
		})
	}
	t.Run("serving", func(t *testing.T) {
		sweep := func() *experiments.ServingResult {
			res, err := experiments.RunServingDoc(`{"seed":3,"loads":[2,24],"cycles":20000}`, experiments.Quick)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := sweep()
		var want *experiments.ServingResult
		unpooled(func() { want = sweep() })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recycling moved the serving sweep\npooled:   %+v\nunpooled: %+v", got.Points, want.Points)
		}
	})
	t.Run("replay", func(t *testing.T) {
		got := experiments.RunLayerReplay(experiments.Quick)
		var want experiments.LayerReplayResult
		unpooled(func() { want = experiments.RunLayerReplay(experiments.Quick) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recycling moved the layer replay\npooled:   %+v\nunpooled: %+v", got, want)
		}
	})
}

// TestSteadyStateMintsNoMessage: once the live messages have reached
// their peak, every message is a reused one — a further stretch of the
// Quick AI die or the saturated quad-die mints nothing.
func TestSteadyStateMintsNoMessage(t *testing.T) {
	const warmup, period = 3000, 6000
	for _, name := range []string{"ai-die", "quad-die/saturated"} {
		n := noctest.Lookup(name).Build()
		n.Run(warmup)
		_, minted, reused := msgPool(n)
		n.Run(period)
		_, mintedAfter, reusedAfter := msgPool(n)
		if mintedAfter != minted || reusedAfter == reused {
			t.Errorf("%s: cycles %d-%d minted %d messages and reused %d (%d minted before)",
				name, warmup, warmup+period, mintedAfter-minted, reusedAfter-reused, minted)
		}
	}
}

// TestCheckpointWithPooledMessages takes a checkpoint while the message
// free-list holds released messages and resumes it in a fresh build,
// whose pool starts empty: both must run on to the same bytes.
func TestCheckpointWithPooledMessages(t *testing.T) {
	for _, name := range []string{"ai-die", "quad-die/everything"} {
		sys := noctest.Lookup(name)
		ref := sys.Build()
		ref.Run(1500)
		if free, _, _ := msgPool(ref); free == 0 {
			t.Fatalf("%s: the message free-list is empty at the checkpoint", name)
		}
		blob, err := noc.EncodeCheckpoint(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		resumed := sys.Build()
		if _, err := noc.DecodeCheckpoint(blob, resumed); err != nil {
			t.Fatal(err)
		}
		if free, _, _ := msgPool(resumed); free != 0 {
			t.Fatalf("%s: a restored network starts with %d pooled messages", name, free)
		}
		if got, want := fingerprint(t, resumed, 1500), fingerprint(t, ref, 1500); got != want {
			t.Errorf("%s: resumed run diverged\nresumed:       %s\nuninterrupted: %s", name, got, want)
		}
	}
}
