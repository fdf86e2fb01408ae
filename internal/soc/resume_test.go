package soc

import (
	"bytes"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// resumableLatency is a latency digest whose state (count + running
// FNV-1a hash) can be carried through a checkpoint, unlike hash/fnv's
// opaque hasher. sim.FNV1aFoldU64 is bit-compatible with the stdlib
// hasher the golden constants were derived with, which these tests prove
// end to end by comparing against those constants.
type resumableLatency struct {
	count uint64
	hash  uint64
}

func newResumableLatency() *resumableLatency {
	return &resumableLatency{hash: sim.FNVOffset}
}

func (r *resumableLatency) attach(net *noc.Network) {
	net.RecordLatency(func(f *noc.Flit, cycles uint64) {
		r.hash = sim.FNV1aFoldU64(r.hash, cycles)
		r.count++
	})
}

func (r *resumableLatency) digest(net *noc.Network) flitDigest {
	return flitDigest{
		Injected:    net.InjectedFlits,
		Delivered:   net.DeliveredFlits,
		Dropped:     net.DroppedFlits,
		Deflections: net.Deflections,
		Hops:        net.TotalHops,
		Latencies:   r.count,
		LatencyFNV:  r.hash,
	}
}

// checkpointResume runs the checkpoint-at-N protocol for one system:
//   - reference: run total cycles uninterrupted, record the digest
//   - interrupted: an identical build runs to checkpointAt, serializes
//     itself (including the latency-digest state as the extra blob),
//     and is discarded
//   - resumed: a third fresh build restores the checkpoint in what
//     models a new process, runs the remaining cycles
//
// The resumed digest must equal the uninterrupted one bit for bit.
func checkpointResume(t *testing.T, build func() *noc.Network, total, checkpointAt int,
	run func(net *noc.Network, cycles int),
	write func(net *noc.Network, extra []byte) ([]byte, error),
	read func(net *noc.Network, ckpt []byte) ([]byte, error)) (uninterrupted, resumed flitDigest) {
	t.Helper()

	netA := build()
	latA := newResumableLatency()
	latA.attach(netA)
	run(netA, total)
	uninterrupted = latA.digest(netA)

	netB := build()
	latB := newResumableLatency()
	latB.attach(netB)
	run(netB, checkpointAt)
	e := sim.NewEncoder()
	e.PutU64(latB.count)
	e.PutU64(latB.hash)
	ckpt, err := write(netB, e.Data())
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	netC := build()
	extra, err := read(netC, ckpt)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	d := sim.NewDecoder(extra)
	latC := &resumableLatency{count: d.U64(), hash: d.U64()}
	if err := d.Err(); err != nil {
		t.Fatalf("extra blob: %v", err)
	}
	latC.attach(netC)
	if got := netC.Ticks(); got != uint64(checkpointAt) {
		t.Fatalf("restored at cycle %d, want %d", got, checkpointAt)
	}
	run(netC, total-checkpointAt)
	resumed = latC.digest(netC)

	if resumed != uninterrupted {
		t.Fatalf("resume-at-%d diverged from uninterrupted run:\nuninterrupted: %#v\nresumed:       %#v",
			checkpointAt, uninterrupted, resumed)
	}
	if err := netC.CheckConservation(); err != nil {
		t.Fatalf("conservation after resume: %v", err)
	}
	return uninterrupted, resumed
}

// serverHarness adapts the golden Server-CPU scenario: the checkpoint
// API lives on the system type, so the harness closes over a map from
// network to system.
func serverHarness() (build func() *noc.Network,
	write func(net *noc.Network, extra []byte) ([]byte, error),
	read func(net *noc.Network, ckpt []byte) ([]byte, error)) {
	owners := map[*noc.Network]*ServerCPU{}
	build = func() *noc.Network {
		s := goldenServerBuild()
		owners[s.Net] = s
		return s.Net
	}
	write = func(net *noc.Network, extra []byte) ([]byte, error) {
		var buf bytes.Buffer
		if err := owners[net].WriteCheckpoint(&buf, extra); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	read = func(net *noc.Network, ckpt []byte) ([]byte, error) {
		return owners[net].ReadCheckpoint(bytes.NewReader(ckpt))
	}
	return
}

func aiHarness() (build func() *noc.Network,
	write func(net *noc.Network, extra []byte) ([]byte, error),
	read func(net *noc.Network, ckpt []byte) ([]byte, error)) {
	owners := map[*noc.Network]*AIProcessor{}
	build = func() *noc.Network {
		a := goldenAIBuild()
		owners[a.Net] = a
		return a.Net
	}
	write = func(net *noc.Network, extra []byte) ([]byte, error) {
		var buf bytes.Buffer
		if err := owners[net].WriteCheckpoint(&buf, extra); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	read = func(net *noc.Network, ckpt []byte) ([]byte, error) {
		return owners[net].ReadCheckpoint(bytes.NewReader(ckpt))
	}
	return
}

func runNet(net *noc.Network, cycles int) {
	for i := 0; i < cycles; i++ {
		net.Tick(sim.Cycle(net.Ticks()))
	}
}

// TestGoldenServerCPUResume proves resume-at-cycle-N is bit-identical to
// the uninterrupted golden Server-CPU run — and that both reproduce the
// committed golden digest, which also validates the resumable FNV fold
// against the hash/fnv digest the constants came from.
func TestGoldenServerCPUResume(t *testing.T) {
	build, write, read := serverHarness()
	uninterrupted, _ := checkpointResume(t, build, 4000, 1500, runNet, write, read)
	checkDigest(t, uninterrupted, goldenServerDigest)
}

// TestGoldenAIProcessorResume is the AI-Processor counterpart, with the
// checkpoint deliberately mid-burst (heavy deflection traffic in
// flight).
func TestGoldenAIProcessorResume(t *testing.T) {
	build, write, read := aiHarness()
	uninterrupted, _ := checkpointResume(t, build, 3000, 1100, runNet, write, read)
	checkDigest(t, uninterrupted, goldenAIDigest)
}

// TestCheckpointRejectsWrongTopology proves the header's topology hash
// gate: a Server-CPU checkpoint must not restore into an AI-Processor.
func TestCheckpointRejectsWrongTopology(t *testing.T) {
	s := goldenServerBuild()
	s.Run(100)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, nil); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	a := goldenAIBuild()
	if _, err := a.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("AI system accepted a Server-CPU checkpoint")
	}
}

// TestCheckpointHostileBytes feeds truncations and bit flips of a real
// checkpoint to ReadCheckpoint: errors are fine, panics are not.
func TestCheckpointHostileBytes(t *testing.T) {
	s := goldenServerBuild()
	s.Run(500)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, []byte("extra")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	ckpt := buf.Bytes()

	for n := 0; n < len(ckpt); n += 101 {
		fresh := goldenServerBuild()
		if _, err := fresh.ReadCheckpoint(bytes.NewReader(ckpt[:n])); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", n)
		}
	}
	for pos := 30; pos < len(ckpt); pos += 997 {
		mut := append([]byte(nil), ckpt...)
		mut[pos] ^= 0xA5
		fresh := goldenServerBuild()
		_, _ = fresh.ReadCheckpoint(bytes.NewReader(mut))
	}
}

// TestSeedPerturbsStreams checks the new Seed knob: zero preserves the
// historical RNG streams (the golden digests depend on that), any other
// value produces a different but still deterministic run.
func TestSeedPerturbsStreams(t *testing.T) {
	cfg := DefaultAIConfig()
	cfg.VRings, cfg.HRings = 4, 2
	cfg.CoresPerVRing, cfg.L2PerHRing = 2, 4
	cfg.HBMStacks, cfg.DMAEngines = 2, 2

	runWith := func(seed uint64) flitDigest {
		c := cfg
		c.Seed = seed
		a := BuildAIProcessor(c)
		lat := newResumableLatency()
		lat.attach(a.Net)
		a.Run(1500)
		return lat.digest(a.Net)
	}
	zero1, zero2 := runWith(0), runWith(0)
	if zero1 != zero2 {
		t.Fatal("seed 0 runs are not deterministic")
	}
	seeded1, seeded2 := runWith(7), runWith(7)
	if seeded1 != seeded2 {
		t.Fatal("seeded runs are not deterministic")
	}
	if zero1 == seeded1 {
		t.Fatal("seed 7 did not perturb the run")
	}
}

// TestQuadDieMidRunCheckpointResume checkpoints the saturated four-die
// Server-CPU at a cycle that is no multiple of anything in the system
// (1500: the RBRG-L2 links are 8 and 60 cycles deep), with flits and
// credit pulses on every inter-die wire, restores into a fresh build and
// requires the final checkpoint bytes to equal the uninterrupted run's.
// The two golden resume tests above stop lightly loaded fabrics through
// Tick; this one stops loaded link pipelines through Run.
func TestQuadDieMidRunCheckpointResume(t *testing.T) {
	const half, full = 1500, 3000
	checkpoint := func(net *noc.Network) []byte {
		var b bytes.Buffer
		if err := noc.WriteCheckpoint(&b, net, nil); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	refNet, refRun := quadDieBuild()
	refRun(full)
	want := checkpoint(refNet)

	midNet, midRun := quadDieBuild()
	midRun(half)
	mid := checkpoint(midNet)

	net, run := quadDieBuild()
	if _, err := noc.ReadCheckpoint(bytes.NewReader(mid), net); err != nil {
		t.Fatalf("resume: %v", err)
	}
	run(full - half)
	if got := checkpoint(net); !bytes.Equal(got, want) {
		t.Errorf("run resumed from cycle %d diverged from the uninterrupted run (%d vs %d checkpoint bytes)", half, len(got), len(want))
	}
}
