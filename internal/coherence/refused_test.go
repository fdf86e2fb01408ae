package coherence_test

import (
	"bytes"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/soc"
)

// refusalBuild is a coherent Server-CPU whose cores each hold far more
// queued reads than their inject queue has entries: with 16 transaction
// buffers over an 8-deep inject queue, CoreAgent.Tick has its Send
// refused on every core from the first cycle on, and hands the refused
// flit back to the network.
func refusalBuild(partitions int) *soc.ServerCPU {
	cfg := soc.DefaultServerConfig()
	cfg.ClustersPerDie = 3
	s := soc.BuildServerCPU(cfg, soc.CoherentCores, nil)
	for i, core := range s.Cores {
		for k := 0; k < 48; k++ {
			// Line-strided and offset per core: homes on both dies, some
			// lines shared between neighbouring cores.
			core.Read(uint64(i/2)*64 + uint64(k)*4096)
		}
	}
	s.Net.SetPartitions(partitions)
	return s
}

// TestRefusedSendsUnderPartitions runs CoreAgent's refused-send path on
// the partitioned engine, where cores tick concurrently in their own
// partitions. The refused flit must go back to the refusing core's own
// shard; a hand-back keyed by destination would write another
// partition's free-list, which the race detector (CI runs this package
// under -race) reports. The run must also stay bit-identical to the
// sequential engine's: same checkpoint bytes at the same cycle.
func TestRefusedSendsUnderPartitions(t *testing.T) {
	const cycles = 3000
	run := func(partitions int) []byte {
		s := refusalBuild(partitions)
		s.Run(1)
		// Every core had 48 reads and 16 free transaction buffers, yet
		// injected only what its inject queue holds: the rest of the
		// first cycle's attempts were refused.
		if got, want := s.Net.InjectedFlits, uint64(len(s.Cores)*noc.DefaultInjectDepth); got != want {
			t.Fatalf("partitions=%d: %d flits injected in the first cycle, want %d (no send was refused?)", partitions, got, want)
		}
		s.Run(cycles - 1)
		var done uint64
		for _, c := range s.Cores {
			done += c.Completed
		}
		if done == 0 {
			t.Fatalf("partitions=%d: no read completed in %d cycles", partitions, cycles)
		}
		var ckpt bytes.Buffer
		if err := s.WriteCheckpoint(&ckpt, nil); err != nil {
			t.Fatalf("partitions=%d: checkpoint: %v", partitions, err)
		}
		return ckpt.Bytes()
	}
	seq := run(1)
	for _, partitions := range []int{2, 4} {
		if got := run(partitions); !bytes.Equal(got, seq) {
			t.Errorf("partitions=%d: checkpoint differs from the sequential engine's (%d vs %d bytes)", partitions, len(got), len(seq))
		}
	}
}
