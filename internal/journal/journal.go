// Package journal is the one code path that writes durable files, and
// every durable store of results is a journal in one format: a header
// object, {"fingerprint": ..., "entries": {key: value, ...}}, followed
// by one {"key": ..., "value": ...} record per Record, so an N-entry
// file costs O(N) bytes to write. A later record replaces an
// earlier one for its key, and a record whose value is null deletes the
// key. Compacted, a journal is the header alone: the indented single
// object earlier releases rewrote after every cell, which therefore
// loads as it is. Values round-trip through encoding/json, whose
// float64 encoding is exact, so a resumed sweep renders byte-identical
// tables to an uninterrupted run.
//
// Three files use it, each under its own fingerprint: the log of a
// harness.CellStore (experiments -journal and refsim -journal), which
// holds finished cells under their CellSpec keys; the serving daemon's
// result cache; and the daemon's job WAL, whose entries are the
// acknowledged jobs still pending, each deleted by a null record when
// the job finishes.
//
// A Journal keeps no entries. Open hands the live entries, and what it
// discarded, to its caller, which keeps each result in one place of its
// own; the Journal only appends and compacts. Opening with a different
// fingerprint than the file's discards the stale entries rather than
// answering from them with wrong results.
//
// Underneath (log.go), replay reads a file as a stream of JSON values,
// tolerating a torn final value, and Replace is the atomic tmp + fsync
// + rename + directory-fsync swap behind compaction and checkpoint
// files.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// header is a journal's first value and its whole compacted form.
type header struct {
	// Fingerprint identifies the format the entries belong to.
	Fingerprint string `json:"fingerprint"`
	// Entries maps key -> the JSON-encoded value.
	Entries map[string]json.RawMessage `json:"entries"`
}

// record is one value appended after the header; a later record for a
// key replaces an earlier one, and a null value deletes the key.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Discarded is what Open read from a file but did not return.
type Discarded struct {
	// Torn is set when Open dropped a torn final record, which a kill
	// mid-append leaves behind.
	Torn bool
	// Foreign is set when the header named another fingerprint; Entries
	// counts the entries written under it.
	Foreign bool
	Entries int
}

// String describes what was discarded for a one-line report, or
// returns "" when nothing was.
func (d Discarded) String() string {
	var parts []string
	if d.Foreign {
		parts = append(parts, fmt.Sprintf("%d entries under another format", d.Entries))
	}
	if d.Torn {
		parts = append(parts, "a torn final record")
	}
	return strings.Join(parts, " and ")
}

// Journal appends records to one file and compacts it. Record, Compact
// and Close are safe for concurrent use.
type Journal struct {
	path        string
	fingerprint string

	mu sync.Mutex
	f  *os.File // open for appending from the first Record on
	// fresh is set while the file has no header under fingerprint, so
	// the first Record writes one; cut, when >= 0, is the size the first
	// Record truncates the file to, dropping a torn final record.
	fresh bool
	cut   int64
}

// Open replays the journal at path and returns the live entries and
// what it discarded; the Journal keeps none of them. An absent file
// opens empty, and opening writes nothing. A journal whose fingerprint
// differs from fingerprint is stale: its entries are discarded. A torn
// final record is discarded too. A file whose first value names no
// fingerprint is no journal, and is refused; so are a torn header and
// damage before the final value, with an error naming the recovery
// action: deleting the file is an explicit operator decision, not
// something a resume should do silently.
func Open(path, fingerprint string) (*Journal, map[string]json.RawMessage, Discarded, error) {
	j := &Journal{path: path, fingerprint: fingerprint, cut: -1}
	entries := map[string]json.RawMessage{}
	var h *header
	end, torn, err := replay(path, func(raw json.RawMessage) error {
		if h == nil {
			h = new(header)
			if err := json.Unmarshal(raw, h); err != nil {
				return err
			}
			if h.Fingerprint == "" {
				return errors.New("not a journal: its first value names no fingerprint")
			}
			if h.Entries != nil {
				entries = h.Entries
			}
			return nil
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if r.Key == "" || r.Value == nil {
			return errors.New("not a journal record")
		}
		if string(r.Value) == "null" {
			delete(entries, r.Key)
		} else {
			entries[r.Key] = r.Value
		}
		return nil
	})
	if err != nil {
		return nil, nil, Discarded{}, err
	}
	d := Discarded{Torn: torn}
	switch {
	case h == nil && torn:
		return nil, nil, Discarded{}, damaged(path, 0, errors.New("the header is cut short"))
	case h == nil:
		j.fresh = true
	case h.Fingerprint != fingerprint:
		d.Foreign, d.Entries = true, len(entries)
		entries = map[string]json.RawMessage{}
		j.fresh = true
	case torn:
		j.cut = end
	}
	return j, entries, d, nil
}

// Record appends v as the value for key; a nil v writes a deletion.
// With sync it returns only once the record is on stable storage. The
// first Record writes a header first when the file has none under this
// journal's fingerprint, and cuts off a torn final record so that no
// record follows it.
func (j *Journal) Record(key string, v any, sync bool) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding %q: %w", key, err)
	}
	line, err := json.Marshal(record{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("journal: encoding %q: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		if err := j.open(); err != nil {
			return err
		}
	}
	// One write per line, so a kill tears at most the final record.
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// open readies the file for the first Record. j.mu must be held.
func (j *Journal) open() error {
	if j.fresh {
		if err := j.compact(nil); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(j.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.cut >= 0 {
		if err := f.Truncate(j.cut); err != nil {
			f.Close()
			return fmt.Errorf("journal: cutting the torn tail of %s: %w", j.path, err)
		}
		j.cut = -1
	}
	j.f = f
	return nil
}

// Compact atomically replaces the file with a header alone, holding
// entries and indented as earlier releases wrote it. The daemon
// compacts its result cache this way on shutdown, leaving one JSON
// object on disk, and its job WAL to the jobs still pending.
func (j *Journal) Compact(entries map[string]json.RawMessage) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.close(); err != nil {
		return err
	}
	return j.compact(entries)
}

// compact writes the header holding entries over the file. j.mu must be
// held and the file closed.
func (j *Journal) compact(entries map[string]json.RawMessage) error {
	if entries == nil {
		entries = map[string]json.RawMessage{}
	}
	// encoding/json sorts map keys, so the file is diffable across runs.
	data, err := json.MarshalIndent(header{Fingerprint: j.fingerprint, Entries: entries}, "", " ")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := Replace(j.path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return err
	}
	j.fresh, j.cut = false, -1
	return nil
}

// Close releases the file. A later Record reopens it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.close()
}

func (j *Journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
