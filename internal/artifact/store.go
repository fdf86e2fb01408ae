// Package artifact is the content-addressed result store behind the
// daemon's memoized job admission and the CLI's -cache-dir: a bounded
// in-memory LRU tier over an optional disk tier of sealed (checksummed)
// files. Keys are content hashes computed by the caller (the canonical
// spec hash from internal/server), so the store never needs to compare
// payloads: equal keys mean equal results by construction.
//
// Corruption policy: every disk read goes through the durable sealed
// envelope, so a damaged entry fails CRC verification, is evicted (the
// file deleted), and reported as a miss — the simulator reruns and the
// store heals. A corrupt entry is never served.
package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"chipletnoc/internal/durable"
	"chipletnoc/internal/lru"
)

// entrySuffix names a disk-tier entry: <key>.art, a sealed envelope.
const entrySuffix = ".art"

// Default tier budgets, chosen so an unconfigured store is useful but
// cannot balloon: quick sim results are a few KB, metrics-laden full
// runs a few MB.
const (
	DefaultMemBytes  = 64 << 20
	DefaultDiskBytes = 1 << 30
)

// Config sizes a Store. Zero values pick the documented defaults.
type Config struct {
	// Dir is the disk tier directory; empty keeps the store memory-only
	// (entries die with the process).
	Dir string
	// MemBytes bounds the payload bytes held in memory (default 64 MiB).
	MemBytes int64
	// DiskBytes bounds the bytes the disk tier's files take, envelopes
	// included (default 1 GiB).
	DiskBytes int64
}

// Stats is a point-in-time observability snapshot; /readyz serves it.
type Stats struct {
	MemEntries     int    `json:"mem_entries"`
	MemBytes       int64  `json:"mem_bytes"`
	DiskEntries    int    `json:"disk_entries"`
	DiskBytes      int64  `json:"disk_bytes"`
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	Evicted        uint64 `json:"evicted"`
	CorruptEvicted uint64 `json:"corrupt_evicted"`
}

// Store is a two-tier content-addressed cache. All methods are safe for
// concurrent use.
type Store struct {
	cfg Config

	mu    sync.Mutex
	mem   *lru.LRU[string, []byte]   // payloads, charged their length
	disk  *lru.LRU[string, struct{}] // files, charged their sealed size
	stats Stats
}

// Open builds a store and, when cfg.Dir is set, rebuilds the disk index
// by scanning the directory: torn *.tmp files are removed, entries are
// ordered oldest-first by modification time, and anything over the disk
// budget is evicted immediately. Per-file damage is tolerated (entries
// are CRC-verified lazily, on read); only an unusable directory is an
// error.
func Open(cfg Config) (*Store, error) {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = DefaultMemBytes
	}
	if cfg.DiskBytes <= 0 {
		cfg.DiskBytes = DefaultDiskBytes
	}
	// Memory eviction is not loss: the entry stays on disk (when a disk
	// tier exists) and is re-promoted on its next hit. Disk eviction is.
	s := &Store{cfg: cfg, mem: lru.New[string, []byte](cfg.MemBytes, nil)}
	s.disk = lru.New(cfg.DiskBytes, func(key string, _ struct{}) {
		os.Remove(s.path(key))
		s.stats.Evicted++
	})
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var idx []found
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, durable.TmpSuffix):
			os.Remove(filepath.Join(cfg.Dir, name))
		case strings.HasSuffix(name, entrySuffix):
			key := strings.TrimSuffix(name, entrySuffix)
			if !validKey(key) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			idx = append(idx, found{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	// Oldest first, so they end at the back of the LRU (and are the first
	// to go if the directory is over budget).
	sort.Slice(idx, func(i, j int) bool {
		if idx[i].mtime != idx[j].mtime {
			return idx[i].mtime < idx[j].mtime
		}
		return idx[i].key > idx[j].key
	})
	for _, f := range idx {
		s.disk.Put(f.key, struct{}{}, f.size)
	}
	return s, nil
}

// validKey accepts lowercase-hex content hashes — the only names the
// store will read or write, so a hostile key can never escape the
// directory or collide with temp files.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.cfg.Dir, key+entrySuffix)
}

// Get returns the payload for key. A memory hit is O(1); a memory miss
// falls to the disk tier, where the sealed envelope is verified — a
// corrupt file is evicted and reported as a miss, never served. The
// returned slice must be treated as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	payload, inMem := s.mem.Get(key)
	_, onDisk := s.disk.Get(key)
	if inMem || !onDisk {
		if inMem {
			s.stats.Hits++
		} else {
			s.stats.Misses++
		}
		s.mu.Unlock()
		return payload, inMem
	}
	s.mu.Unlock()

	// Disk read outside the lock; a racing eviction just means an extra
	// miss. ReadSealed verifies magic, length and CRC32-C.
	payload, err := durable.ReadSealed(s.path(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.Misses++
		if errors.Is(err, durable.ErrCorruptFile) {
			s.stats.CorruptEvicted++
		}
		// Evict whatever is there: unreadable and corrupt entries alike
		// must not be retried on every lookup.
		s.disk.Remove(key)
		os.Remove(s.path(key))
		return nil, false
	}
	s.stats.Hits++
	s.mem.Put(key, payload, int64(len(payload)))
	return payload, true
}

// Put stores payload under key in both tiers (write-through). Oversized
// payloads skip the tier they cannot fit; disk-tier write errors degrade
// the store to memory for that entry rather than failing the caller's
// job — the returned error is advisory.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("artifact: invalid key %q", key)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.mem.Put(key, payload, int64(len(payload)))
	s.mu.Unlock()
	// The disk tier is charged what the file takes, envelope included.
	sealed := int64(durable.SealHeaderSize + len(payload))
	if s.cfg.Dir == "" || sealed > s.cfg.DiskBytes {
		return nil
	}
	if err := durable.WriteSealed(s.path(key), payload, 0o644); err != nil {
		return fmt.Errorf("artifact: disk tier: %w", err)
	}
	s.mu.Lock()
	s.disk.Put(key, struct{}{}, sealed)
	s.mu.Unlock()
	return nil
}

// Delete removes key from both tiers — the caller found the payload
// unusable (e.g. a decode failure above the CRC layer).
func (s *Store) Delete(key string) {
	if s == nil || !validKey(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.Remove(key)
	if s.disk.Remove(key) {
		os.Remove(s.path(key))
	}
}

// Stats returns a snapshot of the counters and tier occupancy.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries, st.MemBytes = s.mem.Len(), s.mem.Bytes()
	st.DiskEntries, st.DiskBytes = s.disk.Len(), s.disk.Bytes()
	return st
}
