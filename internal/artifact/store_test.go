package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// key returns a syntactically valid content key, distinct per i.
func key(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("cached result bytes")
	if err := s.Put(key(0), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(0))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("absent key reported as hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.DiskEntries != 1 || st.MemEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("memory-only store lost its entry")
	}
	if st := s.Stats(); st.DiskEntries != 0 {
		t.Fatalf("memory-only store grew a disk tier: %+v", st)
	}
}

// TestIndexRebuiltAcrossOpen is the recovery property: a new Store over
// the same directory serves everything the old one persisted.
func TestIndexRebuiltAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), []byte(strings.Repeat("v", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Debris that the reopen scan must tolerate or clean.
	os.WriteFile(filepath.Join(dir, "stale"+entrySuffix+".tmp"), []byte("torn"), 0o644)
	os.WriteFile(filepath.Join(dir, "not-a-key"+entrySuffix), []byte("junk"), 0o644)

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, ok := re.Get(key(i))
		if !ok || len(got) != i+1 {
			t.Fatalf("entry %d not rebuilt: %q, %v", i, got, ok)
		}
	}
	if st := re.Stats(); st.DiskEntries != 3 {
		t.Fatalf("rebuilt index has %d entries, want 3 (%+v)", st.DiskEntries, st)
	}
	if _, err := os.Stat(filepath.Join(dir, "stale"+entrySuffix+".tmp")); !os.IsNotExist(err) {
		t.Fatal("torn temp file survived the reopen scan")
	}
}

// TestCorruptEntryEvictedNotServed flips every byte of a stored artifact
// in turn; each flip must read as a miss (the CRC catches it), evict the
// file, and never surface damaged bytes.
func TestCorruptEntryEvictedNotServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the only valid artifact body for this key")
	if err := s.Put(key(0), payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(0)+entrySuffix)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range pristine {
		mangled := append([]byte(nil), pristine...)
		mangled[off] ^= 0x40
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		// A fresh Store per flip forces the disk-tier read path (the
		// memory tier would otherwise mask the damage).
		re, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := re.Get(key(0)); ok {
			t.Fatalf("offset %d: corrupt entry served: %q", off, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("offset %d: corrupt entry not evicted", off)
		}
		if st := re.Stats(); st.CorruptEvicted != 1 {
			t.Fatalf("offset %d: stats = %+v", off, st)
		}
		// Heal for the next offset, as a rerun-and-Put would.
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncatedEntryIsMiss covers the other damage mode: every prefix of
// the file must miss, never panic or serve partial bytes.
func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(0), []byte("truncate me")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(0)+entrySuffix)
	pristine, _ := os.ReadFile(path)
	for n := 0; n < len(pristine); n++ {
		os.WriteFile(path, pristine[:n], 0o644)
		re, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := re.Get(key(0)); ok {
			t.Fatalf("length %d: truncated entry served", n)
		}
		os.WriteFile(path, pristine, 0o644)
	}
}

func TestMemLRUEvictsToDiskTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("a"), 40)
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemBytes > 64 || st.MemEntries > 1 {
		t.Fatalf("memory tier over budget: %+v", st)
	}
	// Evicted-from-memory entries must still hit via disk.
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("entry %d lost after memory eviction", i)
		}
	}
}

func TestDiskLRUEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Sealed envelopes add 16 bytes; three 60-byte payloads (~228 B
	// sealed) exceed the 200-byte budget, so the oldest must go.
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), bytes.Repeat([]byte("b"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DiskBytes > 200 {
		t.Fatalf("disk tier over budget: %+v", st)
	}
	if st.Evicted == 0 {
		t.Fatalf("nothing evicted: %+v", st)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("oldest entry survived a full disk tier")
	}
	if _, ok := s.Get(key(2)); !ok {
		t.Fatal("newest entry evicted instead of oldest")
	}
}

// TestNearBudgetPayloadSparesDiskTier: a payload that fits the disk
// budget but whose sealed file does not must skip the disk tier, not
// evict every other entry and then itself.
func TestNearBudgetPayloadSparesDiskTier(t *testing.T) {
	const budget = 200
	s, err := Open(Config{Dir: t.TempDir(), DiskBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), []byte("small")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(key(3), bytes.Repeat([]byte("n"), budget-8)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskEntries != 3 || st.Evicted != 0 {
		t.Fatalf("near-budget payload disturbed the disk tier: %+v", st)
	}
	re, err := Open(Config{Dir: s.cfg.Dir, DiskBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := re.Get(key(i)); !ok {
			t.Fatalf("entry %d lost to a payload that never fit the disk tier", i)
		}
	}
}

func TestDeleteRemovesBothTiers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(0), []byte("x"))
	s.Delete(key(0))
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("deleted entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, key(0)+entrySuffix)); !os.IsNotExist(err) {
		t.Fatal("deleted entry still on disk")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("g", 64), strings.Repeat("A", 64)} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put accepted key %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get accepted key %q", bad)
		}
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(key(0), nil); err != nil {
		t.Fatal(err)
	}
	s.Delete(key(0))
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}
