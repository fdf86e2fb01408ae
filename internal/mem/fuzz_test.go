package mem

import (
	"testing"
	"testing/quick"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// TestPropertyManyRequestersInterleavedBursts fuzzes the controller's
// write-burst reassembly: several requesters issue interleaved multi-beat
// reads and writes of random sizes; every transaction must complete and
// no burst state may leak.
func TestPropertyManyRequestersInterleavedBursts(t *testing.T) {
	f := func(seed uint64, mix uint8) bool {
		net := noc.NewNetwork("fuzz")
		ring := net.AddRing(20, true)
		ctl := New(net, "mem", Config{AccessCycles: 5, BytesPerCycle: 2048, QueueDepth: 32}, ring.AddStation(10))
		rng := sim.NewRNG(seed)
		var reqs []*requester
		for i := 0; i < 3; i++ {
			reqs = append(reqs, newRequester(t, net, ring.AddStation(i*3), name3(i)))
		}
		net.MustFinalize()
		sizes := []int{64, 256, 512, 1024}
		want := 0
		for i := 0; i < 30; i++ {
			r := reqs[rng.Intn(len(reqs))]
			op := chi.ReadNoSnp
			if rng.Bernoulli(float64(mix%100) / 100) {
				op = chi.WriteNoSnp
			}
			m := &chi.Message{Op: op, Addr: uint64(i) * 4096, Requester: r.Node(), Size: int32(sizes[rng.Intn(len(sizes))])}
			m.Requester = r.Node()
			r.pending = append(r.pending, m)
			r.dst = ctl.Node()
			want++
		}
		for i := 0; i < 60000; i++ {
			run(net, 1)
			done := 0
			for _, r := range reqs {
				done += len(r.done)
			}
			if done == want {
				break
			}
		}
		done := 0
		for _, r := range reqs {
			done += len(r.done)
		}
		if done != want {
			t.Logf("seed %d: %d/%d done", seed, done, want)
			return false
		}
		if ctl.bursts.Len() != 0 || ctl.landed.Len() != 0 {
			t.Logf("seed %d: leaked burst state %d/%d", seed, ctl.landed.Len(), ctl.bursts.Len())
			return false
		}
		return ctl.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func name3(i int) string {
	return string([]byte{'r', byte('0' + i)})
}
