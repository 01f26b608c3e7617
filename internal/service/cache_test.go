package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"refsched/internal/journal"
)

// TestCacheLRUEvictsOldestFirst fills the cache past its byte budget
// and checks that the oldest (least recently used) fingerprints fall
// out first while the newest stay resident.
func TestCacheLRUEvictsOldestFirst(t *testing.T) {
	// Each entry: 4-byte key + 96-byte body = 100 bytes; budget holds 5.
	c := NewCache(500, nil, nil)
	body := make([]byte, 96)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%03d", i), body)
	}
	st := c.Stats()
	if st.Entries != 5 || st.Evictions != 3 {
		t.Fatalf("entries=%d evictions=%d, want 5 and 3", st.Entries, st.Evictions)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes=%d over budget=%d", st.Bytes, st.Budget)
	}
	for i := 0; i < 3; i++ {
		if c.Contains(fmt.Sprintf("k%03d", i)) {
			t.Errorf("oldest key k%03d should have been evicted", i)
		}
	}
	for i := 3; i < 8; i++ {
		if !c.Contains(fmt.Sprintf("k%03d", i)) {
			t.Errorf("recent key k%03d missing", i)
		}
	}
}

// TestCacheGetPromotes: touching an old entry saves it from the next
// eviction.
func TestCacheGetPromotes(t *testing.T) {
	c := NewCache(300, nil, nil) // holds 3 x (4+96)-byte entries
	body := make([]byte, 96)
	c.Put("k000", body)
	c.Put("k001", body)
	c.Put("k002", body)
	if _, ok := c.Get("k000"); !ok {
		t.Fatal("k000 should be resident")
	}
	c.Put("k003", body) // evicts k001, the now-least-recent
	if !c.Contains("k000") || c.Contains("k001") {
		t.Fatal("Get should have promoted k000 over k001")
	}
}

func TestCacheHitRatio(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	c.Put("a", []byte("body"))
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if got, want := st.HitRatio, 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hit ratio = %v, want %v", got, want)
	}
}

// TestCacheRejectsOversizedBody: a value bigger than the whole budget
// is not cached (and does not wipe the cache to make room).
func TestCacheRejectsOversizedBody(t *testing.T) {
	c := NewCache(100, nil, nil)
	c.Put("small", make([]byte, 10))
	c.Put("huge", make([]byte, 1000))
	if c.Contains("huge") {
		t.Fatal("oversized body should not be cached")
	}
	if !c.Contains("small") {
		t.Fatal("existing entries must survive an oversized Put")
	}
}

// TestCacheUpdateAdjustsBytes: replacing a body re-accounts its size.
func TestCacheUpdateAdjustsBytes(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	c.Put("k", make([]byte, 100))
	c.Put("k", make([]byte, 10))
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("k")+10) {
		t.Fatalf("entries=%d bytes=%d after shrink", st.Entries, st.Bytes)
	}
}

// TestCacheWarmsInKeyOrder: a cache warms from the replayed entries in
// key order, so which entries a budget too small for all of them keeps
// does not depend on map order: the last keys, inserted last.
func TestCacheWarmsInKeyOrder(t *testing.T) {
	body := strings.Repeat("x", 95)
	raw, _ := json.Marshal(body)
	warm := map[string]json.RawMessage{"zeta": raw, "alpha": raw, "mid": raw, "beta": raw}
	c := NewCache(200, nil, warm) // holds 2 x (4+95)-byte entries
	for key, want := range map[string]bool{"alpha": false, "beta": false, "mid": true, "zeta": true} {
		if c.Contains(key) != want {
			t.Errorf("Contains(%q) = %v, want %v", key, !want, want)
		}
	}
}

// TestCacheWarmHoldsOneCopy: once warmed from a journal, the cache is
// the only holder of the bodies — the heap grows by about one copy of
// them, not a second one kept by the journal.
func TestCacheWarmHoldsOneCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays a 20 MB journal")
	}
	const n, size = 5000, 4000
	path := filepath.Join(t.TempDir(), "cache.journal.json")
	jnl, _, _, err := journal.Open(path, cacheJournalFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("%06d", i) + strings.Repeat("b", size-6)
		if err := jnl.Record(fmt.Sprintf("key%06d", i), body, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := warmFrom(t, path)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("warming %d x %d-byte bodies grew the heap by %.1f MB", n, size, float64(grew)/1e6)
	if st := c.Stats(); st.Entries != n {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, n)
	}
	if limit := int64(n * size * 3 / 2); grew > limit {
		t.Fatalf("warming grew the heap by %d bytes, more than 1.5 copies of the bodies (%d)", grew, limit)
	}
	runtime.KeepAlive(c)
}

// warmFrom opens the cache journal at path and warms a cache from it,
// returning only the cache.
func warmFrom(t *testing.T, path string) *Cache {
	t.Helper()
	jnl, warm, _, err := journal.Open(path, cacheJournalFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	return NewCache(0, jnl, warm)
}
