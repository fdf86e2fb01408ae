// The two lookup tables that make a warm admission cheap. Neither is a
// cache of record: the artifact store decides whether a result exists,
// and a table only spares re-deriving something from bytes this daemon
// has already seen — a normalized spec from a request body, a decoded
// Result from a stored payload. Both are bounded in bytes, so what a
// hostile client can pin is a constant however large its submissions.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const (
	// admissionMemoBytes bounds the admission memo: four specs at the
	// submission size limit, or some ten thousand catalog-sized ones.
	admissionMemoBytes = 4 << 20
	// decodedMemoBytes bounds the decoded-result memo, in charged bytes
	// (decodedCost).
	decodedMemoBytes = 32 << 20
	// memoEntryOverhead is charged per entry on top of its variable-length
	// contents: the map slot, the list element and the fixed-size structs.
	memoEntryOverhead = 512
)

// memo is a map with least-recently-used eviction under a byte budget.
// Each entry is charged the cost its writer states; an entry that alone
// exceeds the budget is not kept. Safe for concurrent use.
type memo[K comparable, V any] struct {
	budget int64

	mu      sync.Mutex
	entries map[K]*list.Element
	lru     *list.List // front = most recent
	bytes   int64
}

// memoEntry is the LRU list element value.
type memoEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newMemo[K comparable, V any](budget int64) *memo[K, V] {
	return &memo[K, V]{budget: budget, entries: map[K]*list.Element{}, lru: list.New()}
}

// get returns the value stored under key and marks it recently used.
func (m *memo[K, V]) get(key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return v, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry[K, V]).val, true
}

// put stores val under key, replacing what was there, then evicts from
// the cold end until the budget holds.
func (m *memo[K, V]) put(key K, val V, cost int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(key)
	if cost > m.budget {
		return
	}
	m.entries[key] = m.lru.PushFront(&memoEntry[K, V]{key: key, val: val, cost: cost})
	m.bytes += cost
	for m.bytes > m.budget {
		m.removeLocked(m.lru.Back().Value.(*memoEntry[K, V]).key)
	}
}

func (m *memo[K, V]) removeLocked(key K) {
	if el, ok := m.entries[key]; ok {
		m.bytes -= el.Value.(*memoEntry[K, V]).cost
		m.lru.Remove(el)
		delete(m.entries, key)
	}
}

// size returns the bytes currently charged.
func (m *memo[K, V]) size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// admission is a submission with everything that depends only on its
// bytes already worked out: the normalized spec, the kind it resolved to
// and the content address (as jobKey gives it). It is what the admission
// memo holds per request body, so its spec — the *SimSpec and the serving
// document included — is shared by every job admitted from that body and,
// like a shared Result, is never written.
type admission struct {
	spec JobSpec
	kind *jobKind
	key  string
}

// cost is what an admission is charged in the memo: its strings plus the
// fixed overhead.
func (a *admission) cost() int64 {
	n := memoEntryOverhead + len(a.key) + len(a.spec.Kind) + len(a.spec.Experiment) + len(a.spec.Scale) + len(a.spec.Serving)
	if sim := a.spec.Sim; sim != nil {
		n += len(sim.Topology) + len(sim.Scale) + len(sim.Config)
	}
	return int64(n)
}

// decodedResult is a stored payload beside the Result it decoded to.
type decodedResult struct {
	payload []byte
	res     *Result
}

// decodedCost is what a decoded result is charged: the payload it keeps
// for the byte comparison, and twice that again for the structure —
// encoding/json's strings, maps and float64s come to between one and two
// times the text they were parsed from.
func decodedCost(payload []byte) int64 {
	return memoEntryOverhead + 3*int64(len(payload))
}

// admissionCounters are /readyz's host-side counts of what the two memos
// did. A memo miss is a body that had to be parsed (valid or not); a
// decoded miss is a stored payload that had to be decoded.
type admissionCounters struct {
	memoHits, memoMisses       atomic.Uint64
	decodedHits, decodedMisses atomic.Uint64
}

// admissionView is the "admission" object of /readyz.
type admissionView struct {
	MemoHits      uint64 `json:"memo_hits"`
	MemoMisses    uint64 `json:"memo_misses"`
	MemoBytes     int64  `json:"memo_bytes"`
	DecodedHits   uint64 `json:"decoded_hits"`
	DecodedMisses uint64 `json:"decoded_misses"`
	DecodedBytes  int64  `json:"decoded_bytes"`
}
