// Package lru is the one eviction policy of everything nocd keeps under a
// byte budget — the artifact store's memory tier and disk index, and the
// daemon's admission and decoded-result memos: a map whose entries are
// charged a cost and, whenever their total exceeds the budget, evicted
// least recently used first.
package lru

import "container/list"

// LRU is a map with least-recently-used eviction under a byte budget. It
// is not safe for concurrent use: every owner holds its own lock around
// it.
type LRU[K comparable, V any] struct {
	budget  int64
	onEvict func(K, V)
	items   map[K]*list.Element
	order   list.List // front = most recent
	bytes   int64
}

// entry is the list element value.
type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty LRU charged at most budget. onEvict, when not nil,
// is called with each entry the budget pushes out — never with one that
// Remove drops or Put replaces.
func New[K comparable, V any](budget int64, onEvict func(K, V)) *LRU[K, V] {
	if onEvict == nil {
		onEvict = func(K, V) {}
	}
	return &LRU[K, V]{budget: budget, onEvict: onEvict, items: map[K]*list.Element{}}
}

// Get returns the value stored under key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (v V, ok bool) {
	el, ok := l.items[key]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, charged cost
// in place of whatever the key held, then evicts from the least recently
// used end until the budget holds. An entry that alone exceeds the budget
// is evicted on arrival, and nothing else is.
func (l *LRU[K, V]) Put(key K, val V, cost int64) {
	l.Remove(key)
	if cost > l.budget {
		l.onEvict(key, val)
		return
	}
	l.items[key] = l.order.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	l.bytes += cost
	for l.bytes > l.budget {
		e := l.order.Back().Value.(*entry[K, V])
		l.Remove(e.key)
		l.onEvict(e.key, e.val)
	}
}

// Remove drops the entry under key, reporting whether there was one.
func (l *LRU[K, V]) Remove(key K) bool {
	el, ok := l.items[key]
	if ok {
		l.bytes -= el.Value.(*entry[K, V]).cost
		l.order.Remove(el)
		delete(l.items, key)
	}
	return ok
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.items) }

// Bytes returns the cost charged for all entries.
func (l *LRU[K, V]) Bytes() int64 { return l.bytes }
