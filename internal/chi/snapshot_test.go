package chi

import (
	"bytes"
	"errors"
	"testing"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// saveTracker returns the tracker's state walk.
func saveTracker(t *Tracker) []byte {
	e := sim.NewEncoder()
	s := noc.NewSnap(sim.Saving(e))
	t.SnapState(s)
	s.End()
	return e.Data()
}

// loadTracker loads a tracker of the given capacity from data and
// returns it with the load's error and the bytes the load consumed.
func loadTracker(capacity int, data []byte) (*Tracker, []byte, error) {
	t := NewTracker(capacity)
	d := sim.NewDecoder(data)
	c := sim.Loading(d)
	s := noc.NewSnap(c)
	t.SnapState(s)
	s.End()
	return t, data[:len(data)-d.Remaining()], c.Err()
}

// trackerSeeds are a live tracker's walk with three transactions open,
// and the same walk with one entry's message carrying another TxnID than
// the one it is filed under — which a load accepted before it was
// checked.
func trackerSeeds() (valid, misfiled []byte) {
	t := NewTracker(4)
	var open []*Message
	for i := 0; i < 3; i++ {
		m := &Message{Op: ReadNoSnp, Addr: uint64(i) << 6}
		t.Open(m)
		open = append(open, m)
	}
	t.Complete(open[0].TxnID)
	t.Open(&Message{Op: WriteNoSnp, Size: 512})
	valid = saveTracker(t)
	open[1].TxnID = 77
	return valid, saveTracker(t)
}

// TestTrackerRestoreRefusesMisfiledEntry: an entry whose message names
// another transaction fails the load as corrupt.
func TestTrackerRestoreRefusesMisfiledEntry(t *testing.T) {
	valid, misfiled := trackerSeeds()
	if _, _, err := loadTracker(4, valid); err != nil {
		t.Fatalf("valid tracker walk refused: %v", err)
	}
	if _, _, err := loadTracker(4, misfiled); !errors.Is(err, sim.ErrCorruptSnapshot) {
		t.Fatalf("misfiled entry: load error %v, want ErrCorruptSnapshot", err)
	}
}

// FuzzTrackerRestore: arbitrary bytes either fail the tracker's load as
// corrupt or load a table whose every entry is filed under its own
// TxnID, within capacity, and that saves the bytes it consumed.
func FuzzTrackerRestore(f *testing.F) {
	valid, misfiled := trackerSeeds()
	f.Add(valid)
	f.Add(misfiled)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, used, err := loadTracker(4, data)
		if err != nil {
			if !errors.Is(err, sim.ErrCorruptSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		if tr.Outstanding() > 4 {
			t.Fatalf("%d transactions open in a table of 4", tr.Outstanding())
		}
		for _, id := range tr.open.Keys() {
			if m := tr.Lookup(uint32(id)); m.TxnID != uint32(id) {
				t.Fatalf("entry %d holds transaction %d", id, m.TxnID)
			}
		}
		if again := saveTracker(tr); !bytes.Equal(again, used) {
			t.Fatalf("accepted walk does not round-trip: %x in, %x out", used, again)
		}
	})
}
