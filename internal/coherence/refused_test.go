package coherence_test

import (
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/soc"
)

// refusalBuild is a coherent Server-CPU whose cores each hold far more
// queued reads than their inject queue has entries: with 16 transaction
// buffers over an 8-deep inject queue, CoreAgent.Tick has its Send
// refused on every core from the first cycle on, and hands the refused
// flit back to the network.
func refusalBuild() *soc.ServerCPU {
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
	return s
}

// TestRefusedSendsRecycle runs CoreAgent's refused-send path: every core
// is refused from the first cycle on and hands each refused flit back
// through RecycleRefused, which panics on a flit the network had accepted
// and on a double release. The run must keep every flit accounted for and
// complete reads.
func TestRefusedSendsRecycle(t *testing.T) {
	const cycles = 3000
	s := refusalBuild()
	s.Run(1)
	// Every core had 48 reads and 16 free transaction buffers, yet
	// injected only what its inject queue holds: the rest of the first
	// cycle's attempts were refused.
	if got, want := s.Net.InjectedFlits, uint64(len(s.Cores)*noc.DefaultInjectDepth); got != want {
		t.Fatalf("%d flits injected in the first cycle, want %d (no send was refused?)", got, want)
	}
	s.Run(cycles - 1)
	var done uint64
	for _, c := range s.Cores {
		done += c.Completed
	}
	if done == 0 {
		t.Fatalf("no read completed in %d cycles", cycles)
	}
	if err := s.Net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
