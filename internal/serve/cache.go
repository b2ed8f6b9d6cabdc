package serve

import (
	"container/list"

	"repro/internal/core"
)

// cacheEntry is one solved instance. It stores the canonical problem and the
// (small, O(K²)-node) optimal procedure tree rather than the 2^K DP vectors,
// so a full cache stays within a few megabytes even at the admission-control
// size limit. Tree is nil exactly when the instance is inadequate.
type cacheEntry struct {
	hash     string
	key      string // cacheKey(hash, approx spec)
	rung     string // what solved the instance: "exact", "approx" or "batch"
	cost     uint64 // C(U); core.Inf for inadequate instances
	adequate bool
	canon    *core.Problem // canonicalized instance (action order normalized)
	tree     *core.Node    // optimal procedure over canon's action indices
	bytes    int64         // estimated resident size, for the byte budget

	// Bounded-suboptimality answers (approx.go). Only set when approx is
	// true; such entries live under approx-qualified cache keys, so they
	// are never handed to a request that demanded exactness.
	approx       bool   // answer came from the approx engine: cost is certified ≤ gap·OPT, not exact
	gapMilli     uint64 // certified suboptimality ratio (certify.GapScale = proven optimal)
	lowerBound   uint64 // certified lower bound on the optimum
	approxPolicy string // solver that produced the tree: greedy-ratio, greedy-gain, bb
	approxExact  bool   // branch-and-bound completed: the answer is the proven optimum
}

// entryBytes estimates an entry's resident size: struct and hash overhead,
// the canonical problem (weights plus per-action struct and name), and the
// procedure tree (two child pointers, action index, and allocator overhead
// per node). An estimate is enough — the budget bounds growth, it does not
// audit the allocator.
func entryBytes(e *cacheEntry) int64 {
	n := int64(160) + int64(len(e.hash))
	if e.canon != nil {
		n += int64(8 * len(e.canon.Weights))
		for _, a := range e.canon.Actions {
			n += 40 + int64(len(a.Name))
		}
	}
	if e.tree != nil {
		n += int64(48 * e.tree.CountNodes())
	}
	return n
}

// lruCache is an LRU over solved instances, keyed by cacheKey, bounded by
// entry count and optionally by total estimated bytes. It is not safe for
// concurrent use; the server guards it with its mutex.
type lruCache struct {
	capacity   int
	byteBudget int64 // 0: no byte bound
	totalBytes int64
	ll         *list.List // front = most recently used; values are *cacheEntry
	byHash     map[string]*list.Element
}

func newLRU(capacity int, byteBudget int64) *lruCache {
	return &lruCache{
		capacity:   capacity,
		byteBudget: byteBudget,
		ll:         list.New(),
		byHash:     make(map[string]*list.Element, max(capacity, 0)),
	}
}

// get returns the entry for key and marks it most recently used.
func (c *lruCache) get(key string) *cacheEntry {
	el, ok := c.byHash[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// add inserts (or refreshes) an entry, evicting least recently used entries
// until both the entry capacity and the byte budget hold. An entry larger
// than the whole byte budget is not cached at all.
func (c *lruCache) add(e *cacheEntry) {
	if c.capacity <= 0 {
		return
	}
	if e.bytes == 0 {
		e.bytes = entryBytes(e)
	}
	if c.byteBudget > 0 && e.bytes > c.byteBudget {
		return
	}
	if el, ok := c.byHash[e.key]; ok {
		c.totalBytes += e.bytes - el.Value.(*cacheEntry).bytes
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.byHash[e.key] = c.ll.PushFront(e)
		c.totalBytes += e.bytes
	}
	for c.ll.Len() > c.capacity || (c.byteBudget > 0 && c.totalBytes > c.byteBudget) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		old := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.byHash, old.key)
		c.totalBytes -= old.bytes
	}
}

func (c *lruCache) len() int { return c.ll.Len() }
