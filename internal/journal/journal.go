// Package journal is the one code path that writes durable files:
// Replay reads a file as a stream of JSON values, tolerating a torn
// final value; Log.Append adds one value per line; and Replace is the
// atomic tmp + fsync + rename + directory-fsync swap behind compaction
// and checkpoint files (log.go).
//
// A Journal is the keyed result store on top, with two users: the log
// of a harness.CellStore (experiments -journal and refsim -journal),
// which holds finished cells under their CellSpec keys, and the serving
// daemon's result cache. Its file is a header object,
// {"fingerprint": ..., "entries": {key: value, ...}}, followed by one
// {"key": ..., "value": ...} record per Record, so an N-cell sweep
// writes O(N) bytes. Compacted, it is the header alone: the
// single-object file earlier releases rewrote after every cell, which
// therefore loads as it is. Results round-trip through encoding/json,
// whose float64 encoding is exact, so a resumed sweep renders
// byte-identical tables to an uninterrupted run.
//
// A journal is bound to the fingerprint it was opened with: the
// CellStore's constant record format, or the daemon cache's. Opening
// with a different fingerprint discards the stale entries rather than
// answering from them with wrong results.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// header is a journal's first value and its whole compacted form.
type header struct {
	// Fingerprint identifies the format the entries belong to.
	Fingerprint string `json:"fingerprint"`
	// Entries maps cell key -> the cell's JSON-encoded result.
	Entries map[string]json.RawMessage `json:"entries"`
}

// record is one result appended after the header; a later record for
// a key replaces an earlier one.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Journal is one keyed result store. Lookup, Each and Len read the
// entries replayed at Open and may run concurrently with Record, which
// only appends to the file; Record, Compact and Close must not run
// concurrently with each other.
type Journal struct {
	path        string
	fingerprint string
	entries     map[string]json.RawMessage
	log         *Log // nil until the first Record
	// clean is set when the file is a header under fingerprint followed
	// only by whole records, so new records may follow it directly.
	clean   bool
	dropped int // stale entries discarded on open
	torn    int // torn final values dropped on open
}

// Open replays the journal at path. An absent file opens empty, and
// opening writes nothing. A journal whose fingerprint differs from
// fingerprint is treated as stale: its entries are dropped and Dropped
// reports how many. A torn final record is dropped and counted in Torn.
// A torn header, or damage before the final value, is an error naming
// the recovery action: deleting the file is an explicit operator
// decision, not something a resume should do silently.
func Open(path, fingerprint string) (*Journal, error) {
	j := &Journal{path: path, fingerprint: fingerprint, entries: map[string]json.RawMessage{}}
	var h *header
	torn, err := Replay(path, func(raw json.RawMessage) error {
		if h == nil {
			h = new(header)
			if err := json.Unmarshal(raw, h); err != nil {
				return err
			}
			if h.Entries != nil {
				j.entries = h.Entries
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
		j.entries[r.Key] = r.Value
		return nil
	})
	if err != nil {
		return nil, err
	}
	if h == nil {
		if torn {
			return nil, damaged(path, 0, errors.New("the header is cut short"))
		}
		return j, nil
	}
	if h.Fingerprint != fingerprint {
		j.dropped = len(j.entries)
		j.entries = map[string]json.RawMessage{}
		return j, nil
	}
	if torn {
		j.torn = 1
	}
	j.clean = !torn
	return j, nil
}

// Len returns the number of entries replayed at Open.
func (j *Journal) Len() int { return len(j.entries) }

// Dropped returns how many entries were discarded at Open because the
// journal belonged to a different parameter fingerprint.
func (j *Journal) Dropped() int { return j.dropped }

// Torn returns how many torn final records Open dropped (0 or 1).
func (j *Journal) Torn() int { return j.torn }

// Lookup decodes the recorded result for key into out and reports
// whether the cell was on record. A recorded entry that no longer
// decodes is reported as absent so the cell is simply re-run.
func (j *Journal) Lookup(key string, out any) bool {
	raw, ok := j.entries[key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Each calls fn for every entry in sorted key order, handing over the
// raw JSON so the caller decodes into its own type. It is how a
// restarted daemon warms its result cache from the journal without
// knowing up front which keys survived the previous run.
func (j *Journal) Each(fn func(key string, raw json.RawMessage)) {
	keys := make([]string, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, j.entries[k])
	}
}

// Record appends v as the result for key. With sync it returns only
// once the record is on stable storage. The first Record writes the
// header first when the file has none under this fingerprint, or when
// it ends in a torn record that new records must not follow.
func (j *Journal) Record(key string, v any, sync bool) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding %q: %w", key, err)
	}
	if j.log == nil {
		if !j.clean {
			if err := j.Compact(j.entries); err != nil {
				return err
			}
		}
		if j.log, err = OpenLog(j.path); err != nil {
			return err
		}
	}
	return j.log.Append(record{Key: key, Value: raw}, sync)
}

// Compact atomically replaces the file with a header alone, holding
// entries and indented as earlier releases wrote it; Lookup keeps
// answering from the entries replayed at Open. The daemon compacts its
// result cache this way on shutdown, leaving one JSON object on disk.
func (j *Journal) Compact(entries map[string]json.RawMessage) error {
	if err := j.Close(); err != nil {
		return err
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
	j.clean = true
	return nil
}

// Close releases the file. A later Record reopens it.
func (j *Journal) Close() error {
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
