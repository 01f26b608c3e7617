package harness

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"refsched/internal/core"
	"refsched/internal/journal"
)

// Memo is the one store of finished results: a byte-budget LRU from a
// result's key to the exact body served for it, a sweep cell's
// ReportBody under its CellSpec.Key or a daemon's rendered figure under
// its figure key. A memo made by OpenMemo is journaled: it warms from
// the file, fsyncs each new result there before Put returns, stops
// appending at the first failure (Err), so a damaged file ends in at
// most one torn record, and is compacted by Close. Bodies are shared,
// not copied: callers must treat a returned slice as immutable.
type Memo struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *memoEntry

	hits, misses, evictions uint64

	appendMu sync.Mutex       // held for appends, so lookups never wait on an fsync
	jnl      *journal.Journal // nil without a journal
	path     string
	err      error // the first failed append; nothing is appended after it
}

// resultFormat is the fingerprint of every result journal, the CLIs'
// and the daemon's: each value a body as a JSON string. Change it only
// when that encoding changes.
const resultFormat = "results v1"

// MemoStats is the aggregate the daemon's /statsz endpoint reports.
type MemoStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Budget    int64   `json:"budget_bytes"`
	HitRatio  float64 `json:"hit_ratio"`
}

type memoEntry struct {
	key  string
	body []byte
}

// NewMemo returns an empty memo of budget bytes (<= 0: 64 MiB).
func NewMemo(budget int64) *Memo {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Memo{budget: budget, order: list.New(), entries: map[string]*list.Element{}}
}

// OpenMemo returns a memo like NewMemo's journaled at path and warmed,
// in key order, from the results on record there. A torn final record
// and the entries of a file under another format are dropped and
// reported in the Discarded; other damage is an error naming the file.
func OpenMemo(path string, budget int64) (*Memo, journal.Discarded, error) {
	jnl, warm, dropped, err := journal.Open(path, resultFormat)
	if err != nil {
		return nil, dropped, err
	}
	m := NewMemo(budget)
	m.jnl, m.path = jnl, path
	keys := make([]string, 0, len(warm))
	for k := range warm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var body string
		if json.Unmarshal(warm[k], &body) == nil && body != "" {
			m.insert(k, []byte(body))
		}
	}
	return m, dropped, nil
}

func entrySize(key string, body []byte) int64 {
	return int64(len(key) + len(body))
}

// Get returns the body held for key and whether it was present,
// promoting a hit to most-recently-used and counting the lookup in
// Stats.
func (m *Memo) Get(key string) ([]byte, bool) { return m.lookup(key, true) }

// Body is Get without counting: the lookup a sweep makes for each of
// its cells, which Stats leaves out.
func (m *Memo) Body(key string) ([]byte, bool) { return m.lookup(key, false) }

func (m *Memo) lookup(key string, count bool) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if count && ok {
		m.hits++
	} else if count {
		m.misses++
	}
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).body, true
}

// Contains reports presence without perturbing LRU order or counters.
func (m *Memo) Contains(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// Put stores body under key and appends it to the journal, if any and
// unless an earlier append failed (see Err).
func (m *Memo) Put(key string, body []byte) {
	m.mu.Lock()
	stored := m.insert(key, body)
	m.mu.Unlock()
	if !stored {
		return
	}
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	if m.jnl != nil && m.err == nil {
		if err := m.jnl.Record(key, string(body), true); err != nil {
			m.err = fmt.Errorf("recording results in %s: %w", m.path, err)
		}
	}
}

// Err returns the first failed journal append, after which nothing is
// appended, or nil.
func (m *Memo) Err() error {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	return m.err
}

// insert stores body under key, evicting least-recently-used entries
// until the memo is back under budget, and reports whether it stored
// anything. A body larger than the whole budget is not stored at all —
// evicting everything to hold one giant entry would trade many future
// hits for one. m.mu must be held (or m not yet shared).
func (m *Memo) insert(key string, body []byte) bool {
	size := entrySize(key, body)
	if size > m.budget {
		return false
	}
	if el, ok := m.entries[key]; ok {
		e := el.Value.(*memoEntry)
		m.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		m.order.MoveToFront(el)
	} else {
		m.entries[key] = m.order.PushFront(&memoEntry{key: key, body: body})
		m.bytes += size
	}
	for m.bytes > m.budget {
		back := m.order.Back()
		e := back.Value.(*memoEntry)
		m.order.Remove(back)
		delete(m.entries, e.key)
		m.bytes -= entrySize(e.key, e.body)
		m.evictions++
	}
	return true
}

// Close compacts the journal to exactly the live entries — one JSON
// object, the file a warm restart loads — and detaches it. A memo
// without a journal has nothing to close.
func (m *Memo) Close() error {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jnl == nil {
		return nil
	}
	jnl := m.jnl
	m.jnl = nil
	live := make(map[string]json.RawMessage, len(m.entries))
	for k, el := range m.entries {
		live[k], _ = json.Marshal(string(el.Value.(*memoEntry).body)) // a string always encodes
	}
	return jnl.Compact(live)
}

// Stats returns the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	st := MemoStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Entries:   len(m.entries),
		Bytes:     m.bytes,
		Budget:    m.budget,
	}
	m.mu.Unlock()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

// ReportBody is a report as the memo keeps it and the daemon serves it.
// JSON round-trips float64 exactly, so a figure rendered from decoded
// bodies prints the bytes of one rendered from the reports themselves.
func ReportBody(rep *core.Report) []byte {
	raw, _ := json.MarshalIndent(rep, "", " ") // a Report always encodes
	return append(raw, '\n')
}

// report returns the report held under key, decoded, or nil; a body
// that does not decode is absent, so its cell simply runs again.
func (m *Memo) report(key string) *core.Report {
	body, ok := m.Body(key)
	if !ok {
		return nil
	}
	rep := new(core.Report)
	if json.Unmarshal(body, rep) != nil {
		return nil
	}
	return rep
}

// Answer returns the report held under key, else the one compute
// returns, which it stores first.
func (m *Memo) Answer(key string, compute func() (*core.Report, error)) (*core.Report, error) {
	if rep := m.report(key); rep != nil {
		return rep, nil
	}
	rep, err := compute()
	if err != nil {
		return nil, err
	}
	m.Put(key, ReportBody(rep))
	return rep, nil
}
