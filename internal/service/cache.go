package service

import (
	"container/list"
	"encoding/json"
	"sort"
	"sync"

	"refsched/internal/journal"
)

// Cache is the daemon's byte-budget-bounded LRU over rendered results,
// guarded by one mutex. Keys are request fingerprints (see requestKey);
// values are the exact response bodies served to clients, so a hit
// costs a map lookup and zero rendering.
//
// With a journal (refschedd -journal) the cache is durable: it warms
// from the entries the journal replayed, and is then their only holder;
// Put appends each new result to the journal (unsynced — a crash loses
// at most the last few results, never the file), and Close compacts the
// journal to the live entries as one JSON object.
//
// Values are shared, not copied: callers must treat a returned slice
// as immutable.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits, misses, evictions uint64

	jnl *journal.Journal // nil without a journal
	// jnlErr stops appending after the first failure, so a partial line
	// stays the file's torn final value rather than damage before later
	// records; Close's compaction rewrites the file whole.
	jnlErr error
}

// CacheStats is the aggregate the /statsz endpoint reports.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Budget    int64   `json:"budget_bytes"`
	HitRatio  float64 `json:"hit_ratio"`
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache builds a cache bounded to budget bytes (<= 0 selects the
// default, 64 MiB), warmed from the entries jnl replayed, inserted in
// key order. A non-nil jnl receives every later Put.
func NewCache(budget int64, jnl *journal.Journal, warm map[string]json.RawMessage) *Cache {
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{budget: budget, order: list.New(), entries: map[string]*list.Element{}, jnl: jnl}
	keys := make([]string, 0, len(warm))
	for k := range warm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var body string
		if json.Unmarshal(warm[k], &body) == nil && body != "" {
			c.insert(k, []byte(body))
		}
	}
	return c
}

func entrySize(key string, body []byte) int64 {
	return int64(len(key) + len(body))
}

// Get returns the cached body for key and whether it was present,
// promoting a hit to most-recently-used.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Contains reports presence without perturbing LRU order or counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put stores body under key and appends it to the journal, if any. The
// error is the journal append's; the entry is cached either way.
func (c *Cache) Put(key string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.insert(key, body) || c.jnl == nil || c.jnlErr != nil {
		return nil
	}
	c.jnlErr = c.jnl.Record(key, string(body), false)
	return c.jnlErr
}

// insert stores body under key, evicting least-recently-used entries
// until the cache is back under budget, and reports whether it stored
// anything. A body larger than the whole budget is not cached at all —
// evicting everything to hold one giant entry would trade many future
// hits for one. c.mu must be held (or c not yet shared).
func (c *Cache) insert(key string, body []byte) bool {
	size := entrySize(key, body)
	if size > c.budget {
		return false
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += size
	}
	for c.bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= entrySize(e.key, e.body)
		c.evictions++
	}
	return true
}

// Close compacts the journal to exactly the live entries — one JSON
// object, the file a warm restart loads — and detaches it.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jnl == nil {
		return nil
	}
	jnl := c.jnl
	c.jnl = nil
	live := make(map[string]json.RawMessage, len(c.entries))
	for k, el := range c.entries {
		live[k], _ = json.Marshal(string(el.Value.(*cacheEntry).body)) // a string always encodes
	}
	return jnl.Compact(live)
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
	}
	c.mu.Unlock()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}
