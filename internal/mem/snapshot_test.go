package mem

import (
	"bytes"
	"errors"
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// saveController returns the controller's state walk.
func saveController(c *Controller) []byte {
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	c.SnapState(s)
	s.End()
	return e.Data()
}

// loadController loads data into a fresh rig's controller and returns
// it with the load's error and the bytes the load consumed.
func loadController(t testing.TB, data []byte) (*Controller, []byte, error) {
	_, _, ctl := buildMemRig(t, burstRigConfig)
	d := sim.NewDecoder(data)
	c := sim.Loading(d)
	s := noc.NewSnap(c)
	ctl.SnapState(s)
	s.End()
	return ctl, data[:len(data)-d.Remaining()], c.Err()
}

var burstRigConfig = Config{AccessCycles: 10, BytesPerCycle: 1024, QueueDepth: 16}

// controllerSeeds are a controller's walk taken while a four-beat write
// has landed some but not all of its beats, and two damaged copies that
// a load accepted before it checked them: a beat count filed under a
// write that is not open (it stayed in the table for good), and a count
// equal to the burst's length (the write would never be queued).
func controllerSeeds(t testing.TB) (valid, orphan, overfull []byte) {
	net, req, ctl := buildMemRig(t, burstRigConfig)
	req.pending = append(req.pending, &chi.Message{Op: chi.WriteNoSnp, Addr: 0x4000, Requester: req.Node(), Size: 4 * chi.BeatBytes})
	req.dst = ctl.Node()
	for i := 0; i < 500 && ctl.landed.Len() == 0; i++ {
		run(net, 1)
	}
	if ctl.landed.Len() != 1 || ctl.bursts.Len() != 1 {
		t.Fatalf("%d beat counts and %d open writes, want a write with part of its burst landed", ctl.landed.Len(), ctl.bursts.Len())
	}
	key := ctl.landed.Keys()[0]
	w, _ := ctl.bursts.Get(key)
	landed, _ := ctl.landed.Get(key)
	valid = saveController(ctl)
	// The walk ends with the beat list's one entry — requester, TxnID,
	// count — and the five counters.
	tail := func(txn uint32, beats int32) []byte {
		e := sim.NewEncoder()
		c := sim.Saving(e)
		c.Len(1, 1)
		requester := w.Requester
		sim.Int(c, &requester)
		c.U32(&txn)
		sim.Int(c, &beats)
		for _, v := range []uint64{ctl.Reads, ctl.Writes, ctl.BytesServed, ctl.QueueFullDrops, ctl.StrayWrData} {
			c.U64(&v)
		}
		return e.Data()
	}
	have := tail(w.TxnID, landed)
	if !bytes.HasSuffix(valid, have) {
		t.Fatalf("walk %x does not end with the beat list %x", valid, have)
	}
	head := valid[:len(valid)-len(have)]
	orphan = append(append([]byte(nil), head...), tail(w.TxnID+1, landed)...)
	overfull = append(append([]byte(nil), head...), tail(w.TxnID, 4)...)
	return valid, orphan, overfull
}

// TestControllerRestoreRefusesBadBeats: beats for a write that is not
// open, and a count that has reached the burst's length, fail the load as
// corrupt.
func TestControllerRestoreRefusesBadBeats(t *testing.T) {
	valid, orphan, overfull := controllerSeeds(t)
	if _, _, err := loadController(t, valid); err != nil {
		t.Fatalf("valid controller walk refused: %v", err)
	}
	for name, data := range map[string][]byte{"orphan": orphan, "overfull": overfull} {
		if _, _, err := loadController(t, data); !errors.Is(err, sim.ErrCorruptSnapshot) {
			t.Errorf("%s beat count: load error %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// FuzzControllerRestore: arbitrary bytes either fail the controller's
// load as corrupt or load beat counts that belong to open writes and are
// short of their bursts, and that save the bytes the load consumed.
func FuzzControllerRestore(f *testing.F) {
	valid, orphan, overfull := controllerSeeds(f)
	f.Add(valid)
	f.Add(orphan)
	f.Add(overfull)
	f.Fuzz(func(t *testing.T, data []byte) {
		ctl, used, err := loadController(t, data)
		if err != nil {
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		for _, k := range ctl.landed.Keys() {
			n, _ := ctl.landed.Get(k)
			if w, open := ctl.bursts.Get(k); !open || n < 1 || int(n) >= w.Beats() {
				t.Fatalf("write %#x loaded with %d beats landed (open %v)", k, n, open)
			}
		}
		if again := saveController(ctl); !bytes.Equal(again, used) {
			t.Fatalf("accepted walk does not round-trip: %x in, %x out", used, again)
		}
	})
}
