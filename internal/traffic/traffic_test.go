package traffic

import (
	"errors"
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

func TestSeqStream(t *testing.T) {
	s := NewSeqStream(0x1000, 64, 256)
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1000, 0x1040}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("step %d: %#x, want %#x", i, got, w)
		}
	}
}

func TestSeqStreamDefaultStride(t *testing.T) {
	s := NewSeqStream(0, 0, 0)
	if s.Next() != 0 || s.Next() != chi.LineSize {
		t.Fatal("default stride must be one line")
	}
}

// TestRetiredStreamTagsRefused: the uniform and Zipfian streams (wire
// tags 2 and 3) are gone; a requester section carrying one must fail the
// load as corrupt, not be read as a sequential cursor. The tag is the
// byte before the trailing varint cursor.
func TestRetiredStreamTagsRefused(t *testing.T) {
	net, req, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 4, Rate: 1, ReadFraction: 1, Stream: NewSeqStream(0, 64, 0),
	})
	run(net, 50)
	e := sim.NewEncoder()
	save := noc.NewSnap(sim.Saving(e))
	req.SnapState(save)
	save.End()
	data := e.Data()
	cursor := sim.NewEncoder()
	cursor.PutUvarint(req.cfg.Stream.(*SeqStream).next)
	tag := len(data) - 1 - cursor.Len()
	if data[tag] != streamSeq {
		t.Fatalf("byte %d is %d, not the stream tag", tag, data[tag])
	}
	for _, retired := range []byte{streamSeq, 2, 3} {
		data[tag] = retired
		c := sim.Loading(sim.NewDecoder(data))
		load := noc.NewSnap(c)
		req.SnapState(load)
		load.End()
		if err := c.Err(); (err != nil) != (retired != streamSeq) || (err != nil && !errors.Is(err, sim.ErrCorruptSnapshot)) {
			t.Errorf("stream tag %d: load error %v", retired, err)
		}
	}
}

func buildTrafficRig(t *testing.T, cfg RequesterConfig) (*noc.Network, *Requester, *mem.Controller) {
	t.Helper()
	net := noc.NewNetwork("t")
	ring := net.AddRing(12, true)
	ctl := mem.New(net, "mem", mem.Config{AccessCycles: 10, BytesPerCycle: 64, QueueDepth: 32}, ring.AddStation(6))
	if cfg.TargetOf == nil {
		cfg.TargetOf = FixedTarget(ctl.Node())
	}
	req := NewRequester(net, "gen", cfg, sim.NewRNG(7), ring.AddStation(0))
	net.MustFinalize()
	return net, req, ctl
}

func run(net *noc.Network, n int) {
	for i := 0; i < n; i++ {
		net.Tick(sim.Cycle(net.Ticks()))
	}
}

func TestClosedLoopCompletesAll(t *testing.T) {
	net, req, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 8, Rate: 1, ReadFraction: 1,
		Stream:      NewSeqStream(0, 64, 0),
		MaxRequests: 100,
	})
	run(net, 5000)
	if !req.Done() {
		t.Fatalf("not done: issued=%d completed=%d", req.Issued, req.Completed)
	}
	if req.Completed != 100 || req.ReadsDone != 100 {
		t.Fatalf("completed=%d reads=%d", req.Completed, req.ReadsDone)
	}
	if req.Latency.Count() != 100 {
		t.Fatalf("latency samples %d", req.Latency.Count())
	}
	if req.Latency.Mean() <= 10 {
		t.Fatalf("mean latency %v implausibly low", req.Latency.Mean())
	}
}

func TestReadWriteMix(t *testing.T) {
	net, req, ctl := buildTrafficRig(t, RequesterConfig{
		Outstanding: 8, Rate: 1, ReadFraction: 0.5,
		Stream:      NewSeqStream(0, 64, 0),
		MaxRequests: 400,
	})
	run(net, 20000)
	if req.Completed != 400 {
		t.Fatalf("completed %d", req.Completed)
	}
	if req.ReadsDone == 0 || req.WritesDone == 0 {
		t.Fatalf("mix broken: %d reads, %d writes", req.ReadsDone, req.WritesDone)
	}
	ratio := float64(req.ReadsDone) / 400
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("read ratio %v, want ~0.5", ratio)
	}
	if ctl.Reads != req.ReadsDone || ctl.Writes != req.WritesDone {
		t.Fatalf("controller counts diverge: %d/%d vs %d/%d",
			ctl.Reads, ctl.Writes, req.ReadsDone, req.WritesDone)
	}
}

func TestRateThrottlesIssue(t *testing.T) {
	netFast, fast, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 16, Rate: 1, ReadFraction: 1,
		Stream: NewSeqStream(0, 64, 0),
	})
	netSlow, slow, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 16, Rate: 0.05, ReadFraction: 1,
		Stream: NewSeqStream(0, 64, 0),
	})
	run(netFast, 2000)
	run(netSlow, 2000)
	if slow.Issued == 0 {
		t.Fatal("slow generator never issued")
	}
	if slow.Issued*4 > fast.Issued {
		t.Fatalf("rate knob ineffective: slow=%d fast=%d", slow.Issued, fast.Issued)
	}
}

func TestOutstandingBoundsInFlight(t *testing.T) {
	net, req, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 4, Rate: 1, ReadFraction: 1,
		Stream: NewSeqStream(0, 64, 0),
	})
	for i := 0; i < 500; i++ {
		run(net, 1)
		if inFlight := req.Issued - req.Completed; inFlight > 4 {
			t.Fatalf("in flight %d > outstanding 4", inFlight)
		}
	}
}

func TestInterleavedTargetsSpread(t *testing.T) {
	nodes := []noc.NodeID{10, 11, 12, 13}
	f := InterleavedTargets(nodes)
	counts := make(map[noc.NodeID]int)
	for a := uint64(0); a < 4*64*50; a += 64 {
		counts[f(a)]++
	}
	for _, n := range nodes {
		if counts[n] != 50 {
			t.Fatalf("node %d got %d/50", n, counts[n])
		}
	}
}

func TestRequesterConfigValidation(t *testing.T) {
	net := noc.NewNetwork("t")
	ring := net.AddRing(8, true)
	st := ring.AddStation(0)
	bad := []RequesterConfig{
		{Outstanding: 0, Stream: NewSeqStream(0, 64, 0), TargetOf: FixedTarget(1)},
		{Outstanding: 4, TargetOf: FixedTarget(1)},
		{Outstanding: 4, Stream: NewSeqStream(0, 64, 0)},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			NewRequester(net, "g", cfg, sim.NewRNG(1), st)
		}()
	}
}

func TestWriteTargetOfSplitsClasses(t *testing.T) {
	// Reads must go to one controller, writes to another.
	net := noc.NewNetwork("t")
	ring := net.AddRing(16, true)
	rdCtl := mem.New(net, "rdmem", mem.Config{AccessCycles: 5, BytesPerCycle: 64, QueueDepth: 16}, ring.AddStation(5))
	wrCtl := mem.New(net, "wrmem", mem.Config{AccessCycles: 5, BytesPerCycle: 64, QueueDepth: 16}, ring.AddStation(10))
	req := NewRequester(net, "dma", RequesterConfig{
		Outstanding: 8, Rate: 1, ReadFraction: 0.5,
		Stream:        NewSeqStream(0, 64, 0),
		TargetOf:      FixedTarget(rdCtl.Node()),
		WriteTargetOf: FixedTarget(wrCtl.Node()),
		MaxRequests:   100,
	}, sim.NewRNG(5), ring.AddStation(0))
	net.MustFinalize()
	run(net, 20000)
	if !req.Done() {
		t.Fatalf("incomplete: %d/%d", req.Completed, 100)
	}
	if rdCtl.Writes != 0 || wrCtl.Reads != 0 {
		t.Fatalf("classes leaked: rd ctl writes=%d, wr ctl reads=%d", rdCtl.Writes, wrCtl.Reads)
	}
	if rdCtl.Reads == 0 || wrCtl.Writes == 0 {
		t.Fatal("one class starved entirely")
	}
}

func TestOpenLoopRateAccuracy(t *testing.T) {
	// An unconstrained open-loop generator at rate p issues ~p per
	// cycle.
	net, req, _ := buildTrafficRig(t, RequesterConfig{
		Outstanding: 64, Rate: 0.1, ReadFraction: 1,
		Stream: NewSeqStream(0, 64, 0),
	})
	run(net, 20000)
	rate := float64(req.Issued) / 20000
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("issue rate %v, want ~0.1", rate)
	}
}

func TestMultiBeatRequesterRoundTrip(t *testing.T) {
	net, req, ctl := buildTrafficRig(t, RequesterConfig{
		Outstanding: 4, Rate: 1, ReadFraction: 0.5,
		LineBytes:   512,
		Stream:      NewSeqStream(0, 512, 0),
		MaxRequests: 50,
	})
	run(net, 30000)
	if !req.Done() {
		t.Fatalf("incomplete: %d/50 (reads %d writes %d)", req.Completed, req.ReadsDone, req.WritesDone)
	}
	if req.BytesMoved != 50*512 {
		t.Fatalf("BytesMoved = %d", req.BytesMoved)
	}
	if ctl.BytesServed != 50*512 {
		t.Fatalf("BytesServed = %d", ctl.BytesServed)
	}
}
