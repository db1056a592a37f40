package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cached per-pair artifact. kind distinguishes
// the JSON diff payload from the rendered SVG so both can be cached
// for the same pair without clashing. Cross-version artifacts carry
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

// cohortScoped reports whether a cached artifact depends on the whole
// cohort of its spec rather than on one run pair; such entries are
// invalidated by any run change in the spec. (A nearest-neighbor
// answer for run A changes when run B is imported, so per-run
// invalidation would serve stale neighbors.)
func cohortScoped(kind string) bool {
	switch kind {
	case kindCluster, kindOutliers, kindNearest, kindDrift:
		return true
	}
	return false
}

// resultCache is a bounded LRU of computed diff artifacts. Differencing
// a 400-edge pair costs ~0.4ms of CPU; a repository browsed
// interactively re-requests the same few pairs constantly, so a small
// cache absorbs most of the traffic. Entries for a run are invalidated
// when that run is re-imported or deleted (wired to store.OnRunsChange).
// A capacity <= 0 disables caching entirely.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	gen   int64 // bumped by every invalidation; see addIfGen

	hits, misses, evictions, invalidations int64
}

type cacheEntry struct {
	key cacheKey
	val any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached value and promotes it to most-recent.
func (c *resultCache) get(key cacheKey) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// generation returns the invalidation generation a computation should
// capture before it starts reading store state.
func (c *resultCache) generation() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// addIfGen inserts a value only if no invalidation has happened since
// the caller captured gen. This closes the compute/invalidate race: a
// run overwritten while its diff was being computed bumps the
// generation, so the stale payload is discarded instead of cached.
func (c *resultCache) addIfGen(key cacheKey, val any, gen int64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	c.addLocked(key, val)
}

// add inserts (or refreshes) a value, evicting the least-recently-used
// entry when over capacity.
func (c *resultCache) add(key cacheKey, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, val)
}

func (c *resultCache) addLocked(key cacheKey, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// invalidateRun drops every cached artifact involving the given run of
// the given specification — pair artifacts naming the run in either
// diff position, plus every cohort-scoped artifact of the spec.
func (c *resultCache) invalidateRun(specName, runName string) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	for key, el := range c.items {
		match := key.spec == specName && (key.runA == runName || key.runB == runName || cohortScoped(key.kind))
		// Cross-version entries: runB lives in spec2, so a change to
		// that run must drop them too.
		if key.spec2 == specName && key.runB == runName {
			match = true
		}
		if match {
			c.ll.Remove(el)
			delete(c.items, key)
			c.invalidations++
		}
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
	Capacity      int     `json:"capacity"`
	Size          int     `json:"size"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

func (c *resultCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := cacheStats{
		Capacity:      c.cap,
		Size:          c.ll.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
