package chi_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/traffic"
)

// The message free-list against whole systems: recycling changes no
// result, a pool that has warmed up mints nothing more, and a checkpoint
// taken with a non-empty pool resumes byte-identically.

// system is one built reference system behind what these tests need.
type system struct {
	net        *noc.Network
	run        func(cycles int)
	checkpoint func(w *bytes.Buffer) error
	restore    func(blob []byte) error
	retried    func() uint64 // transactions re-issued; nil without retry
}

// aiDie is the Quick AI die: the golden-digest configuration.
func aiDie() system {
	cfg := soc.DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 2
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 4
	cfg.HBMStacks, cfg.DMAEngines = 2, 2
	a := soc.BuildAIProcessor(cfg)
	return system{
		net: a.Net, run: a.Run,
		checkpoint: func(w *bytes.Buffer) error { return a.WriteCheckpoint(w, nil) },
		restore:    func(blob []byte) error { _, err := a.ReadCheckpoint(bytes.NewReader(blob)); return err },
	}
}

// quadDie is the four-die Server-CPU with saturating memory cores. A
// non-zero retry timeout far below the saturated round trip re-issues
// transactions whose first copy is still queued in a memory controller:
// the duplicates the ownership rule keeps retried requests away from the
// free-list for.
func quadDie(retry chi.RetryConfig) system {
	cfg := soc.DefaultServerConfig()
	cfg.Packages, cfg.ClustersPerDie = 2, 2
	s := soc.BuildServerCPU(cfg, soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
		const line = 64
		return traffic.RequesterConfig{
			Outstanding: 16, Rate: 1, ReadFraction: 0.7, LineBytes: line,
			Stream:   traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
			TargetOf: traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
			Retry:    retry,
		}
	})
	sys := system{
		net: s.Net, run: s.Run,
		checkpoint: func(w *bytes.Buffer) error { return s.WriteCheckpoint(w, nil) },
		restore:    func(blob []byte) error { _, err := s.ReadCheckpoint(bytes.NewReader(blob)); return err },
	}
	if retry.Enabled() {
		sys.retried = func() uint64 {
			var n uint64
			for _, r := range s.MemCores {
				retried, _ := r.RetryStats()
				n += retried
			}
			return n
		}
	}
	return sys
}

// spuriousRetry re-issues anything slower than 300 cycles, a few times.
var spuriousRetry = chi.RetryConfig{TimeoutCycles: 300, MaxRetries: 6}

// fingerprint runs s for cycles and renders what it did: the network's
// counters, every delivery latency in order, and its checkpoint bytes.
func fingerprint(t *testing.T, s system, cycles int) string {
	t.Helper()
	lat := fnv.New64a()
	s.net.RecordLatency(func(f *noc.Flit, c uint64) { fmt.Fprintf(lat, "%d|%d\n", f.ID, c) })
	s.run(cycles)
	var b bytes.Buffer
	if err := s.checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	n := s.net
	ck := fnv.New64a()
	ck.Write(b.Bytes())
	return fmt.Sprintf("inj=%d del=%d drop=%d defl=%d hops=%d lat=%x ckpt=%x(%dB)",
		n.InjectedFlits, n.DeliveredFlits, n.DroppedFlits, n.Deflections, n.TotalHops, lat.Sum64(), ck.Sum64(), b.Len())
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
// AI die, the quad-die memory cores, the same under spurious retries, a
// serving sweep and the layer-trace replay must come out identical.
func TestRecyclingChangesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		build  func() system
		cycles int
	}{
		{"ai-die", aiDie, 3000},
		{"quad-die", func() system { return quadDie(chi.RetryConfig{}) }, 3000},
		{"quad-die-retry", func() system { return quadDie(spuriousRetry) }, 4000},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.build()
			got := fingerprint(t, s, c.cycles)
			if _, _, reused := msgPool(s.net); reused == 0 {
				t.Fatal("the pooled run reused no message")
			}
			if s.retried != nil && s.retried() == 0 {
				t.Fatal("the retry run re-issued nothing")
			}
			var want string
			unpooled(func() { want = fingerprint(t, c.build(), c.cycles) })
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
	for _, c := range []struct {
		name           string
		build          func() system
		warmup, period int
	}{
		{"ai-die", aiDie, 3000, 6000},
		{"quad-die", func() system { return quadDie(chi.RetryConfig{}) }, 3000, 6000},
	} {
		s := c.build()
		s.run(c.warmup)
		_, minted, reused := msgPool(s.net)
		s.run(c.period)
		_, mintedAfter, reusedAfter := msgPool(s.net)
		if mintedAfter != minted || reusedAfter == reused {
			t.Errorf("%s: cycles %d-%d minted %d messages and reused %d (%d minted before)",
				c.name, c.warmup, c.warmup+c.period, mintedAfter-minted, reusedAfter-reused, minted)
		}
	}
}

// TestCheckpointWithPooledMessages takes a checkpoint while the message
// free-list holds released messages and resumes it in a fresh build,
// whose pool starts empty: both must run on to the same bytes.
func TestCheckpointWithPooledMessages(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() system
	}{{"ai-die", aiDie}, {"quad-die-retry", func() system { return quadDie(spuriousRetry) }}} {
		ref := c.build()
		ref.run(1500)
		if free, _, _ := msgPool(ref.net); free == 0 {
			t.Fatalf("%s: the message free-list is empty at the checkpoint", c.name)
		}
		var blob bytes.Buffer
		if err := ref.checkpoint(&blob); err != nil {
			t.Fatal(err)
		}
		resumed := c.build()
		if err := resumed.restore(blob.Bytes()); err != nil {
			t.Fatal(err)
		}
		if free, _, _ := msgPool(resumed.net); free != 0 {
			t.Fatalf("%s: a restored network starts with %d pooled messages", c.name, free)
		}
		if got, want := fingerprint(t, resumed, 1500), fingerprint(t, ref, 1500); got != want {
			t.Errorf("%s: resumed run diverged\nresumed:       %s\nuninterrupted: %s", c.name, got, want)
		}
	}
}
