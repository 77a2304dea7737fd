package service

import (
	"container/list"
	"sync"
)

// cacheKey identifies a (page content, serving host) pair, the same FNV-1a
// content-hash keying philosophy as fingerprint.Memo: the hash plus the
// length make accidental collisions negligible, and the host participates
// because internal/external classification (and so the audit verdict)
// depends on it.
type cacheKey struct {
	hash uint64
	n    int
	host string
}

// lruCache is a mutex-guarded LRU over audit replies. Unlike
// fingerprint.Memo (single-shard, epoch-evicting) the service cache is hit
// from every handler goroutine at once and must bound memory smoothly under
// a shifting working set, so it pays for a real recency list.
type lruCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	val audited
}

// newLRUCache builds a cache holding at most capacity responses.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element, capacity)}
}

// get returns the cached reply for key, refreshing its recency. The
// reply's bytes and document are shared — callers must not mutate them.
func (c *lruCache) get(key cacheKey) (audited, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return audited{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// add stores a reply under key and returns how many entries were evicted
// to stay within capacity (0 or 1; 0 also when key already existed —
// concurrent identical-input audits both store the same reply).
func (c *lruCache) add(key cacheKey, val audited) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return 0
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// fnv1a64 is FNV-1a over a string, inlined to avoid the hash/fnv
// allocation and string→[]byte copy on the per-request hot path (the same
// trade fingerprint.Memo makes).
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
