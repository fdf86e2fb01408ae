package traffic

import (
	"fmt"
	"strings"
	"testing"

	"chipletnoc/internal/mem"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

func TestParseTrace(t *testing.T) {
	in := `# demo trace
10 R 1000 64

20 W 2000 512
20 R 3000 64
`
	ops, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].Cycle != 10 || ops[0].Write || ops[0].Addr != 0x1000 || ops[0].Size != 64 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if !ops[1].Write || ops[1].Size != 512 {
		t.Fatalf("op1 = %+v", ops[1])
	}
}

func TestParseTraceRejects(t *testing.T) {
	cases := []string{
		"10 X 1000 64",           // bad op
		"10 R 1000 0",            // bad size
		"nonsense",               // unparsable
		"20 R 10 64\n10 R 20 64", // decreasing cycles
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

// TestParseTraceRefusesOversizedOp holds an untrusted trace to the size
// bound: a 64 GiB op once made the replayer queue 2^28 data beats.
func TestParseTraceRefusesOversizedOp(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader(fmt.Sprintf("0 R 0 %d\n", MaxOpBytes)))
	if err != nil || len(ops) != 1 || ops[0].Size != MaxOpBytes {
		t.Fatalf("a %d-byte op must parse: %+v, %v", MaxOpBytes, ops, err)
	}
	for _, size := range []int{MaxOpBytes + 1, 68719476736} {
		in := fmt.Sprintf("0 R 0 64\n1 W 0 %d\n", size)
		_, err := ParseTrace(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("size %d: got %v, want an error naming line 2", size, err)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	ops := []TraceOp{
		{Cycle: 1, Write: false, Addr: 0x40, Size: 64},
		{Cycle: 5, Write: true, Addr: 0x1000, Size: 512},
	}
	var b strings.Builder
	if err := FormatTrace(&b, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != ops[0] || back[1] != ops[1] {
		t.Fatalf("round trip: %+v", back)
	}
}

func buildReplayRig(t *testing.T, ops []TraceOp) (*noc.Network, *Replayer, *mem.Controller) {
	t.Helper()
	net := noc.NewNetwork("t")
	ring := net.AddRing(12, true)
	ctl := mem.New(net, "mem", mem.Config{AccessCycles: 10, BytesPerCycle: 512, QueueDepth: 32}, ring.AddStation(6))
	rep := NewReplayer(net, "replay", ops, 8, FixedTarget(ctl.Node()), ring.AddStation(0))
	net.MustFinalize()
	return net, rep, ctl
}

func TestReplayerCompletesTrace(t *testing.T) {
	var ops []TraceOp
	for i := 0; i < 50; i++ {
		ops = append(ops, TraceOp{Cycle: uint64(i * 3), Write: i%2 == 0, Addr: uint64(i) * 512, Size: 512})
	}
	net, rep, ctl := buildReplayRig(t, ops)
	run(net, 20000)
	if !rep.Done() {
		t.Fatalf("replay incomplete: %d/%d", rep.Completed, len(ops))
	}
	if rep.BytesMoved != 50*512 {
		t.Fatalf("BytesMoved = %d", rep.BytesMoved)
	}
	if ctl.Reads+ctl.Writes != 50 {
		t.Fatalf("controller served %d", ctl.Reads+ctl.Writes)
	}
}

func TestReplayerHonoursTiming(t *testing.T) {
	// A sparse trace: the second op must not issue before its recorded
	// cycle even though the network is idle.
	ops := []TraceOp{
		{Cycle: 0, Addr: 0x40, Size: 64},
		{Cycle: 500, Addr: 0x80, Size: 64},
	}
	net, rep, _ := buildReplayRig(t, ops)
	run(net, 400)
	if rep.Issued != 1 {
		t.Fatalf("issued %d before the recorded time", rep.Issued)
	}
	run(net, 400)
	if rep.Issued != 2 {
		t.Fatalf("second op never issued")
	}
}

func TestReplayerSlipUnderPressure(t *testing.T) {
	// A dense trace against a slow memory: the replay must fall behind
	// and record slip.
	var ops []TraceOp
	for i := 0; i < 100; i++ {
		ops = append(ops, TraceOp{Cycle: uint64(i), Addr: uint64(i) * 64, Size: 64})
	}
	net := noc.NewNetwork("t")
	ring := net.AddRing(12, true)
	ctl := mem.New(net, "mem", mem.Config{AccessCycles: 50, BytesPerCycle: 8, QueueDepth: 4}, ring.AddStation(6))
	rep := NewReplayer(net, "replay", ops, 4, FixedTarget(ctl.Node()), ring.AddStation(0))
	net.MustFinalize()
	for i := 0; i < 100000 && !rep.Done(); i++ {
		net.Tick(sim.Cycle(net.Ticks()))
	}
	if !rep.Done() {
		t.Fatal("replay incomplete")
	}
	if rep.SlipCycles == 0 {
		t.Fatal("dense trace on slow memory must slip")
	}
}

func FuzzParseTrace(f *testing.F) {
	f.Add("10 R 1000 64\n20 W 2000 512\n")
	f.Add("# comment\n\n5 R 0 1\n")
	f.Add("bogus")
	f.Add("0 W 0 68719476736\n")
	f.Add("7 R ff 1048576\n3 W 0 64\n")
	f.Fuzz(func(t *testing.T, in string) {
		ops, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever parses is within the bounds the replayer relies on...
		for i, op := range ops {
			if op.Size < 1 || op.Size > MaxOpBytes {
				t.Fatalf("op %d size %d outside [1, %d]", i, op.Size, MaxOpBytes)
			}
			if i > 0 && op.Cycle < ops[i-1].Cycle {
				t.Fatalf("op %d cycle %d before op %d's %d", i, op.Cycle, i-1, ops[i-1].Cycle)
			}
		}
		// ...and round-trips losslessly.
		var b strings.Builder
		if err := FormatTrace(&b, ops); err != nil {
			t.Fatal(err)
		}
		back, err := ParseTrace(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(ops) {
			t.Fatalf("round trip lost ops: %d != %d", len(back), len(ops))
		}
		for i := range ops {
			if ops[i] != back[i] {
				t.Fatalf("op %d mismatch: %+v vs %+v", i, ops[i], back[i])
			}
		}
	})
}
