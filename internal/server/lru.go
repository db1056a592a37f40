package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cache slot: an artifact of a run pair, a
// cohort query or a specification pair. kind distinguishes the JSON
// diff payload from the rendered SVG so both can be cached for the
// same pair without clashing. Cross-version artifacts carry
// the second specification in spec2 (runA belongs to spec, runB to
// spec2); same-spec artifacts leave it empty.
type cacheKey struct {
	spec, runA, runB, cost, kind string
	spec2                        string
}

const (
	kindDiff     = "diff"
	kindSVG      = "svg"
	kindCluster  = "cluster"
	kindOutliers = "outliers"
	kindNearest  = "nearest"
	kindCross    = "xdiff"
	kindEvolve   = "evolve"
	kindDrift    = "drift"
)

// inputs names what a cached artifact was computed from: the content
// hashes of the runs a pair artifact compares (store.LoadRunHash), or
// the run-set version a cohort artifact reflects
// (store.RunsVersion). An entry answers only a lookup with the same
// inputs, so a run that changed can never be served a stale result,
// and nothing needs invalidating.
type inputs struct {
	hashA, hashB string
	version      uint64
}

// resultCache is a bounded LRU of computed diff artifacts. Differencing
// a 400-edge pair costs ~0.4ms of CPU; a repository browsed
// interactively re-requests the same few pairs constantly, so a small
// cache absorbs most of the traffic. Each cacheKey has one slot, whose
// entry carries the inputs it was computed from: an entry for
// superseded inputs is overwritten in place rather than left to age
// out. A capacity <= 0 disables caching entirely.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key cacheKey
	in  inputs
	val any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// get returns the value cached for key from the given inputs and
// promotes it to most-recent.
func (c *resultCache) get(key cacheKey, in inputs) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).in != in {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// add stores a value computed from in under key, replacing whatever
// the key's slot held and evicting the least-recently-used entry when
// over capacity.
func (c *resultCache) add(key cacheKey, in inputs, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		*el.Value.(*cacheEntry) = cacheEntry{key, in, val}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key, in, val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// purge empties the cache (used by the cold-path benchmark).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// cacheStats is a point-in-time snapshot for /v1/stats.
type cacheStats struct {
	Capacity  int     `json:"capacity"`
	Size      int     `json:"size"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func (c *resultCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := cacheStats{
		Capacity:  c.cap,
		Size:      c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
