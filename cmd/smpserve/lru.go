package main

import (
	"container/list"
	"sync"
)

// prefilterCache is a mutex-protected LRU of compiled artifacts — single
// prefilters keyed by the (DTD source, canonical path set) pair, and merged
// multi-query prefilters keyed by their ordered per-query sets. Compilation
// is the expensive static analysis of the paper (DTD parse, Glushkov
// automata, table and matcher construction); caching turns the service into
// compile-once, serve-many.
//
// Entries are weighed by an explicit byte footprint supplied at insertion,
// so the cache can be bounded in bytes as well as in entry count. The weight
// is merge-aware: a single prefilter weighs its whole compiled plan and
// engine tables (smp.Prefilter.PlanStats), while a multi-query entry weighs
// only the merged engine's scan and step tables it adds on top — its
// per-query plans are shared with (and already weighed by) the individual
// entries the service resolves first.
type prefilterCache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64      // total weight budget; 0 = unlimited
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element

	totalBytes int64
	hits       int64
	misses     int64
	evictions  int64
}

type cacheEntry struct {
	key string
	// label is the human-readable identity of the entry (dataset/paths or
	// query), safe to expose in /stats — the key itself embeds the full DTD
	// source.
	label string
	val   any
	// planBytes is the entry's own compiled footprint (the full plan for a
	// single prefilter, the merged engine's tables for a merged one); weight adds
	// the key bytes (DTD source + spec) the entry pins and is what the
	// budget counts.
	planBytes int64
	weight    int64
	hits      int64
}

// cacheEntryInfo is the /stats view of one cached entry: the compiled
// footprint proper and the full eviction weight (footprint + cache key).
type cacheEntryInfo struct {
	Label       string `json:"label"`
	PlanBytes   int64  `json:"plan_bytes"`
	WeightBytes int64  `json:"weight_bytes"`
	Hits        int64  `json:"hits"`
}

// newPrefilterCache returns an LRU holding up to capacity compiled entries
// (capacity < 1 selects 1) whose footprints together stay within maxBytes (0
// disables the byte budget). The most recently used entry is never evicted,
// so a single over-budget plan still serves.
func newPrefilterCache(capacity int, maxBytes int64) *prefilterCache {
	if capacity < 1 {
		capacity = 1
	}
	return &prefilterCache{
		capacity: capacity,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached value for key and marks it most recently used.
func (c *prefilterCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	el.Value.(*cacheEntry).hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts a compiled value weighing planBytes, evicting least recently
// used entries while the cache exceeds its entry capacity or its byte
// budget. If another goroutine compiled and inserted the same key
// concurrently, the existing entry wins (both are equivalent).
func (c *prefilterCache) put(key, label string, val any, planBytes int64) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).val
	}
	entry := &cacheEntry{
		key:       key,
		label:     label,
		val:       val,
		planBytes: planBytes,
		weight:    planBytes + int64(len(key)),
	}
	c.entries[key] = c.order.PushFront(entry)
	c.totalBytes += entry.weight
	for c.order.Len() > 1 &&
		(c.order.Len() > c.capacity || (c.maxBytes > 0 && c.totalBytes > c.maxBytes)) {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*cacheEntry)
		delete(c.entries, old.key)
		c.totalBytes -= old.weight
		c.evictions++
	}
	return val
}

// counters returns the aggregate cache counters without materialising the
// per-entry list — the cheap accessor behind the scrape-time /metrics
// instruments.
func (c *prefilterCache) counters() (size int, bytes int64, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.totalBytes, c.hits, c.misses, c.evictions
}

// view returns the per-entry footprints (most-recently-used first) together
// with the aggregate counters, all under one lock, so the totals always
// match the entry list.
func (c *prefilterCache) view() (entries []cacheEntryInfo, size int, bytes int64, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries = make([]cacheEntryInfo, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		entries = append(entries, cacheEntryInfo{Label: e.label, PlanBytes: e.planBytes, WeightBytes: e.weight, Hits: e.hits})
	}
	return entries, c.order.Len(), c.totalBytes, c.hits, c.misses, c.evictions
}
