package soc

import (
	"bytes"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
)

// quadDieBuild is the four-compute-die Server-CPU under saturating
// memory traffic — the benchmark's quad-die workloads. Every inter-die
// link is an RBRG-L2.
func quadDieBuild() (*noc.Network, func(int)) {
	cfg := DefaultServerConfig()
	cfg.Packages = 2
	cfg.ClustersPerDie = 2
	s := BuildServerCPU(cfg, MemoryCores, func(core int, s *ServerCPU) traffic.RequesterConfig {
		const line = 64
		return traffic.RequesterConfig{
			Outstanding:  8,
			Rate:         1,
			ReadFraction: 0.7,
			LineBytes:    line,
			Stream:       traffic.NewSeqStream(uint64(core)<<28, line, 1<<22),
			TargetOf:     traffic.InterleavedTargetsBy(s.AllDDRNodes(), line),
		}
	})
	return s.Net, s.Run
}

// TestCheckpointBytesGolden pins the checkpoint wire format across
// commits: the differential suites compare two runs of one build, so
// they cannot see a layout change that both runs share. Each system is
// checkpointed mid-run with traffic in every queue; the length and
// FNV-1a of the bytes were captured at sim.SnapshotVersion 6 and must not
// move unless it does.
// The same bytes are then restored into a second build and written out
// again: a walk that loads what it saved gives the identical file.
func TestCheckpointBytesGolden(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*noc.Network, func(int))
		cycles int
		length int
		fnv    uint64
	}{
		{"server-cpu", func() (*noc.Network, func(int)) { s := goldenServerBuild(); return s.Net, s.Run }, 1500, 2950, 0xf6ac6f5639e3b1e8},
		{"ai-processor", func() (*noc.Network, func(int)) { a := goldenAIBuild(); return a.Net, a.Run }, 1100, 67926, 0x996c285dfe3b32af},
		{"quad-die", quadDieBuild, 1500, 18244, 0x578558c4e1bf2ecd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, run := tc.build()
			run(tc.cycles)
			var buf bytes.Buffer
			if err := noc.WriteCheckpoint(&buf, net, []byte("extra")); err != nil {
				t.Fatalf("WriteCheckpoint: %v", err)
			}
			if got := sim.FNV1a(buf.Bytes()); buf.Len() != tc.length || got != tc.fnv {
				t.Fatalf("checkpoint bytes moved: %d bytes, FNV %#x; want %d bytes, FNV %#x\n"+
					"If intentional, bump sim.SnapshotVersion and update the constants.",
					buf.Len(), got, tc.length, tc.fnv)
			}
			fresh, _ := tc.build()
			if _, err := noc.ReadCheckpoint(bytes.NewReader(buf.Bytes()), fresh); err != nil {
				t.Fatalf("ReadCheckpoint: %v", err)
			}
			var again bytes.Buffer
			if err := noc.WriteCheckpoint(&again, fresh, []byte("extra")); err != nil {
				t.Fatalf("WriteCheckpoint after restore: %v", err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("restored state re-encodes differently: %d bytes, FNV %#x; wrote %d bytes, FNV %#x",
					again.Len(), sim.FNV1a(again.Bytes()), buf.Len(), tc.fnv)
			}
		})
	}
}
