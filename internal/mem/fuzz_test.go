package mem

import (
	"bytes"
	"math"
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

// waker keeps a memory controller awake: registered ahead of it, it wakes
// the controller's node at each of its own ticks, so the controller runs
// every cycle as the forced-awake engine would run it.
type waker struct{ ni *noc.NodeInterface }

func (w *waker) Name() string       { return "waker" }
func (w *waker) Tick(now sim.Cycle) { w.ni.Wake() }

// twinRig is one side of FuzzControllerMatchesEveryCycle: a controller
// and three requesters on one ring, the controller gated or ticked every
// cycle.
type twinRig struct {
	net  *noc.Network
	ctl  *Controller
	reqs []*requester
}

func newTwinRig(t *testing.T, cfg Config, everyCycle bool) *twinRig {
	net := noc.NewNetwork("twin")
	ring := net.AddRing(20, true)
	w := &waker{}
	if everyCycle {
		net.AddDevice(w)
	}
	r := &twinRig{net: net, ctl: New(net, "mem", cfg, ring.AddStation(10))}
	w.ni = r.ctl.Interface()
	for i := 0; i < 3; i++ {
		r.reqs = append(r.reqs, newRequester(t, net, ring.AddStation(i*3), name3(i)))
	}
	net.MustFinalize()
	return r
}

// FuzzControllerMatchesEveryCycle holds a controller that sleeps while its
// bucket fills to one ticked every cycle: same requests at the same
// cycles, then after every cycle the same grant cycles (the in-service
// pipeline's ready stamps), the same replies in the same order, the
// bucket equal bit for bit once the sleeper's owed refills are settled,
// and — at random cycles — the same checkpoint bytes. The rates are not
// exact in binary (0.1, 1/3, 2.7, …), so n refills added one at a time
// differ from one n·rate: a replay that multiplies once fails here.
func FuzzControllerMatchesEveryCycle(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(4*seed), uint8(7*seed), uint16(40*seed))
	}
	rates := []float64{0.1, 1.0 / 3, 2.7, 5.0 / 7, 8.5, 12.3, 64.1, 1000.0 / 3}
	sizes := []int32{64, 256, 1024}
	f.Fuzz(func(t *testing.T, seed uint64, rate, depth, access uint8, maxGap uint16) {
		cfg := Config{
			AccessCycles:  1 + int(access)%120,
			BytesPerCycle: rates[int(rate)%len(rates)],
			QueueDepth:    1 + int(depth)%64,
		}
		gated, ref := newTwinRig(t, cfg, false), newTwinRig(t, cfg, true)
		rng := sim.NewRNG(seed)
		at, issued := 0, 0
		for c := 0; c < 3000; c++ {
			if c == at && issued < 40 {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					r, op, size := rng.Intn(3), chi.ReadNoSnp, sizes[rng.Intn(len(sizes))]
					if rng.Bernoulli(0.4) {
						op = chi.WriteNoSnp
					}
					for _, rig := range []*twinRig{gated, ref} {
						req := rig.reqs[r]
						req.pending = append(req.pending, &chi.Message{Op: op, Addr: uint64(issued) * 4096, Requester: req.Node(), Size: size})
						req.dst = rig.ctl.Node()
					}
					issued++
				}
				at = c + 1 + rng.Intn(1+int(maxGap)%400)
			}
			gated.net.Run(1)
			ref.net.Run(1)

			g, w := gated.ctl, ref.ctl
			end := sim.Cycle(gated.net.Ticks())
			if got, want := math.Float64bits(g.refilled(end)), math.Float64bits(w.tokens); got != want || w.filled != end {
				t.Fatalf("cycle %d: settled bucket %v, every-cycle bucket %v (filled through %d)", c, g.refilled(end), w.tokens, w.filled)
			}
			if g.inSvc.Len() != w.inSvc.Len() || g.queue.Len() != w.queue.Len() {
				t.Fatalf("cycle %d: %d queued/%d in service, every-cycle %d/%d", c, g.queue.Len(), g.inSvc.Len(), w.queue.Len(), w.inSvc.Len())
			}
			for i := 0; i < g.inSvc.Len(); i++ {
				if g.inSvc.At(i).ready != w.inSvc.At(i).ready {
					t.Fatalf("cycle %d: grant %d ready at %d, every-cycle at %d", c, i, g.inSvc.At(i).ready, w.inSvc.At(i).ready)
				}
			}
			for i, req := range gated.reqs {
				done, want := req.done, ref.reqs[i].done
				if len(done) != len(want) {
					t.Fatalf("cycle %d: %s has %d replies, every-cycle %d", c, req.name, len(done), len(want))
				}
				if k := len(done) - 1; k >= 0 && (done[k].TxnID != want[k].TxnID || req.doneAt[done[k].TxnID] != ref.reqs[i].doneAt[want[k].TxnID]) {
					t.Fatalf("cycle %d: %s reply %d is txn %d, every-cycle txn %d", c, req.name, k, done[k].TxnID, want[k].TxnID)
				}
			}
			if rng.Bernoulli(0.05) && !bytes.Equal(saveController(g), saveController(w)) {
				t.Fatalf("cycle %d: checkpoint bytes differ from the every-cycle controller's", c)
			}
		}
	})
}
