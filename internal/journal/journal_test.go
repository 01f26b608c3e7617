package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// mustOpen opens the journal at path under fp, failing the test on an
// error.
func mustOpen(t *testing.T, path, fp string) (*Journal, map[string]json.RawMessage, Discarded) {
	t.Helper()
	j, entries, d, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j, entries, d
}

// lookup decodes the entry for key into out and reports whether it was
// there.
func lookup(entries map[string]json.RawMessage, key string, out any) bool {
	raw, ok := entries[key]
	return ok && json.Unmarshal(raw, out) == nil
}

type report struct {
	IPC    float64
	Events uint64
	Name   string
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig10.journal.json")
	j, entries, d := mustOpen(t, path, "v1 scale=64")
	if len(entries) != 0 || d != (Discarded{}) {
		t.Fatalf("fresh journal: %d entries, discarded %+v", len(entries), d)
	}

	// Awkward float64s must round-trip exactly — that is the basis of the
	// byte-identical-resume guarantee.
	in := report{IPC: 0.1 + 0.2, Events: 1<<53 - 1, Name: "WL-1|32Gb|codesign"}
	if err := j.Record("WL-1|32Gb|codesign", in, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("WL-2|32Gb|allbank", report{IPC: 1.0 / 3.0}, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (fresh process) and decode.
	_, entries2, _ := mustOpen(t, path, "v1 scale=64")
	if len(entries2) != 2 {
		t.Fatalf("reopened: %d entries, want 2", len(entries2))
	}
	var out report
	if !lookup(entries2, "WL-1|32Gb|codesign", &out) {
		t.Fatal("recorded cell not found after reopen")
	}
	if out != in {
		t.Fatalf("round-trip mismatch: got %+v, want %+v", out, in)
	}
	if _, ok := entries2["WL-3|32Gb|codesign"]; ok {
		t.Error("an unrecorded cell is on record")
	}
	if lookup(entries2, "nope", &out) {
		t.Error("lookup reported an unrecorded cell")
	}
}

func TestJournalOverwriteKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	j, _, _ := mustOpen(t, path, "fp")
	j.Record("k", report{IPC: 1}, true)
	j.Record("k", report{IPC: 2}, true)
	j.Close()
	var out report
	_, entries, _ := mustOpen(t, path, "fp")
	if !lookup(entries, "k", &out) || out.IPC != 2 {
		t.Fatalf("latest record must win: %+v", out)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
}

// TestJournalNullDeletesKey: a record whose value is null deletes its
// key, whether the key came from an earlier record or from the header,
// and a later record brings the key back.
func TestJournalNullDeletesKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, _ := mustOpen(t, path, "fp")
	if err := j.Compact(map[string]json.RawMessage{"h": json.RawMessage(`"from the header"`)}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		key string
		v   any
	}{{"a", "one"}, {"b", "two"}, {"a", nil}, {"h", nil}, {"c", "three"}, {"c", nil}, {"c", "back"}} {
		if err := j.Record(step.key, step.v, false); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, entries, d := mustOpen(t, path, "fp")
	if d != (Discarded{}) {
		t.Fatalf("discarded %+v from a clean journal", d)
	}
	var got []string
	for k, raw := range entries {
		got = append(got, k+"="+string(raw))
	}
	if len(entries) != 2 || string(entries["b"]) != `"two"` || string(entries["c"]) != `"back"` {
		t.Fatalf("entries = %v, want b and c alone", got)
	}
}

func TestJournalFingerprintMismatchDropsEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	j, _, _ := mustOpen(t, path, "scale=64")
	j.Record("a", report{}, true)
	j.Record("b", report{}, true)
	j.Close()

	// Same file, different sweep parameters: stale entries must not be
	// resumed into wrong results.
	j2, entries, d := mustOpen(t, path, "scale=8")
	if len(entries) != 0 {
		t.Fatalf("stale journal resumed %d entries", len(entries))
	}
	if !d.Foreign || d.Entries != 2 {
		t.Fatalf("discarded %+v, want 2 entries under another format", d)
	}
	if got := d.String(); got != "2 entries under another format" {
		t.Fatalf("discarded reads %q", got)
	}
	// Recording under the new fingerprint rewrites the file; the old
	// fingerprint is gone for good.
	j2.Record("c", report{}, true)
	j2.Close()
	_, entries3, _ := mustOpen(t, path, "scale=8")
	if _, ok := entries3["a"]; len(entries3) != 1 || ok {
		t.Fatal("old-fingerprint entries leaked into the rewritten journal")
	}
}

func TestJournalCorruptFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	for _, content := range []string{"{not json", `{"op":"accept","id":"job-000001"}` + "\n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := Open(path, "fp")
		if err == nil {
			t.Fatalf("%q: a corrupt journal must be an explicit error, not a silent restart", content)
		}
		if !strings.Contains(err.Error(), "delete it") {
			t.Errorf("error %q should tell the operator the recovery action", err)
		}
	}
}

func TestJournalAtomicFlushLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.json")
	j, _, _ := mustOpen(t, path, "fp")
	for i := 0; i < 5; i++ {
		if err := j.Record(strings.Repeat("k", i+1), report{Events: uint64(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(map[string]json.RawMessage{"k": json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "j.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory = %v, want only j.json (no stray temp files)", names)
	}
}

// TestJournalFileMode: every journal file has the mode a plain
// OpenFile(0644) gives under the process umask, whether its header went
// through Replace (a fresh journal's first Record) or it was compacted,
// and a compaction keeps whatever mode the file already had.
func TestJournalFileMode(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain")
	f, err := os.OpenFile(plain, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want := modeOf(t, plain)

	path := filepath.Join(dir, "j.json")
	j, _, _ := mustOpen(t, path, "fp")
	if err := j.Record("k", "v", true); err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, path); got != want {
		t.Fatalf("fresh journal after its first record: mode %v, want %v", got, want)
	}
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, path); got != want {
		t.Fatalf("compacted journal: mode %v, want %v", got, want)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, path); got != 0o640 {
		t.Fatalf("compaction changed mode 0640 to %v", got)
	}
}

func modeOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Mode().Perm()
}

func TestJournalMissingDirErrors(t *testing.T) {
	j, _, _, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "j.json"), "fp")
	if err != nil {
		t.Fatal(err) // opening is fine: the file just doesn't exist yet
	}
	if err := j.Record("k", report{}, true); err == nil {
		t.Fatal("recording into a missing directory must surface an error")
	}
}

// TestJournalOpenReturnsRawValues: Open hands back every live entry's
// raw JSON intact, so each caller decodes into its own type; the
// daemon's cache warms from them without knowing up front which keys
// survived the previous run.
func TestJournalOpenReturnsRawValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal.json")
	j, _, _ := mustOpen(t, path, "refschedd-cache-v1")
	for _, kv := range [][2]string{{"zeta", "last"}, {"alpha", "first"}, {"mid", "middle"}} {
		if err := j.Record(kv[0], kv[1], false); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Reopen as a fresh process: raw JSON intact under every key.
	_, entries, _ := mustOpen(t, path, "refschedd-cache-v1")
	vals := map[string]string{}
	for k, raw := range entries {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("decoding %q: %v", k, err)
		}
		vals[k] = s
	}
	if fmt.Sprint(vals) != "map[alpha:first mid:middle zeta:last]" {
		t.Fatalf("entries = %v", vals)
	}
}

func TestRecordEncodingFailureLeavesJournalUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal.json")
	j, _, _ := mustOpen(t, path, "v1")
	if err := j.Record("keep", "me", true); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("bad", func() {}, true); err == nil {
		t.Fatal("expected an encoding error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed record changed the file:\n%s\n->\n%s", before, after)
	}
	j.Close()
	_, entries, _ := mustOpen(t, path, "v1")
	_, bad := entries["bad"]
	if _, keep := entries["keep"]; len(entries) != 1 || !keep || bad {
		t.Fatalf("failed record mutated the journal: %d entries", len(entries))
	}
}

// TestJournalOpenAbsentWritesNothing: opening costs no write when the
// file is absent or already compact — a daemon's start-up pays no
// fsync for its journal.
func TestJournalOpenAbsentWritesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.journal.json")
	j, _, _ := mustOpen(t, path, "v1")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("opening an absent journal created the file")
	}

	if err := j.Compact(map[string]json.RawMessage{"k": json.RawMessage(`"v"`)}); err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, _, _ := mustOpen(t, path, "v1")
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(st1, st2) || st1.Size() != st2.Size() || !st1.ModTime().Equal(st2.ModTime()) {
		t.Fatal("opening a compact journal rewrote it")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d files, want only the journal", len(entries))
	}
}

// TestJournalRecordAppendsOneLine is the O(N) contract: after the
// header, every Record grows the same file by exactly its own record
// line — no whole-file rewrite — so an N-cell sweep writes O(N) bytes.
func TestJournalRecordAppendsOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig15.journal.json")
	j, _, _ := mustOpen(t, path, "fp")
	defer j.Close()
	const n = 180
	var first os.FileInfo
	for i := 0; i < n; i++ {
		rep := report{IPC: float64(i) / 7, Events: uint64(i), Name: strings.Repeat("x", i%13)}
		key := strings.Repeat("k", 1+i%5) + string(rune('a'+i%26))
		var before int64
		if first != nil {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			before = st.Size()
		}
		if err := j.Record(key, rep, true); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = st
			continue
		}
		value, _ := json.Marshal(rep)
		line, _ := json.Marshal(record{Key: key, Value: value})
		if grew := st.Size() - before; grew != int64(len(line))+1 {
			t.Fatalf("record %d grew the file by %d bytes, want its %d-byte line", i, grew, len(line)+1)
		}
		if !os.SameFile(first, st) {
			t.Fatalf("record %d replaced the file instead of appending", i)
		}
	}
}

// TestJournalRecordConcurrent: Record is safe from many goroutines at
// once (run under -race), the first of them writing the header, and
// every record lands whole.
func TestJournalRecordConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.json")
	j, _, _ := mustOpen(t, path, "fp")
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Record(fmt.Sprintf("w%d-%d", w, i), report{Events: uint64(i)}, i%5 == 0); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, d := mustOpen(t, path, "fp")
	if len(entries) != writers*each || d != (Discarded{}) {
		t.Fatalf("reopened: %d entries, discarded %+v; want %d and nothing", len(entries), d, writers*each)
	}
}

// TestJournalLoadsParentFormat: a journal written by earlier releases
// is one indented {"fingerprint","entries"} object. It loads unchanged
// and new records append after it.
func TestJournalLoadsParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig10.journal.json")
	old := "{\n \"fingerprint\": \"v4 mode=exact scale=64\",\n \"entries\": {\n" +
		"  \"WL-1|16Gb|codesign\": {\n   \"IPC\": 0.30000000000000004,\n   \"Events\": 9007199254740991,\n   \"Name\": \"a\"\n  },\n" +
		"  \"WL-1|16Gb|perbank\": {\n   \"IPC\": 0.3333333333333333,\n   \"Events\": 0,\n   \"Name\": \"\"\n  }\n }\n}\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, _ := mustOpen(t, path, "v4 mode=exact scale=64")
	var got report
	if len(entries) != 2 || !lookup(entries, "WL-1|16Gb|codesign", &got) ||
		got != (report{IPC: 0.30000000000000004, Events: 1<<53 - 1, Name: "a"}) {
		t.Fatalf("parent-format journal: %d entries, codesign=%+v", len(entries), got)
	}
	if err := j.Record("WL-1|16Gb|allbank", report{IPC: 2}, true); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), old) {
		t.Fatal("recording into a parent-format journal rewrote its header")
	}
	_, entries2, _ := mustOpen(t, path, "v4 mode=exact scale=64")
	_, perbank := entries2["WL-1|16Gb|perbank"]
	_, allbank := entries2["WL-1|16Gb|allbank"]
	if len(entries2) != 3 || !perbank || !allbank {
		t.Fatalf("reopened: %d entries, want 3", len(entries2))
	}
}

// TestJournalPartialWriteRefused models a torn write at every depth of
// a real journal. A kill mid-append tears only the final record: Open
// drops and reports it, returns every record before it, and the next
// Record cuts the tear off instead of appending after it. A tear
// inside the header, or damage before the final value, is refused with
// an error naming the recovery action, never resumed silently.
func TestJournalPartialWriteRefused(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal.json")
	j, _, _ := mustOpen(t, ref, "fp")
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		if err := j.Record(k, report{Events: uint64(i), Name: strings.Repeat(k, 30)}, true); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// ends[0] is the end of the header, ends[i] the end of record i.
	var ends []int
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(dec.InputOffset()))
	}
	if len(ends) != 1+len(keys) {
		t.Fatalf("journal holds %d values, want a header and %d records", len(ends), len(keys))
	}

	// Truncations at every depth: inside the fingerprint header,
	// mid-record, and inside the last record's closing brace (len-1 only
	// strips the trailing newline, which still parses).
	for n := 1; n < len(data)-1; n++ {
		path := filepath.Join(dir, "torn.journal.json")
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, entries, d, err := Open(path, "fp")
		if n < ends[0] {
			if err == nil || !strings.Contains(err.Error(), "delete it") {
				t.Fatalf("truncation at %d/%d inside the header: err = %v, want a refusal naming the recovery action", n, len(data), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("truncation at %d/%d: %v", n, len(data), err)
		}
		whole := 0
		for _, e := range ends[1:] {
			if e <= n {
				whole++
			}
		}
		// A cut just past a value's closing brace, or just after its
		// newline, tears nothing.
		wantTorn := true
		for _, e := range ends {
			if n == e || n == e+1 {
				wantTorn = false
			}
		}
		if d.Torn != wantTorn || len(entries) != whole {
			t.Fatalf("truncation at %d/%d: Torn=%v with %d entries, want %v and the %d whole records", n, len(data), d.Torn, len(entries), wantTorn, whole)
		}
		if wantTorn && d.String() != "a torn final record" {
			t.Fatalf("truncation at %d: discarded reads %q", n, d)
		}
		for i, k := range keys {
			if _, ok := entries[k]; ok != (i < whole) {
				t.Fatalf("truncation at %d/%d: %q on record = %v", n, len(data), k, ok)
			}
		}
		// The next record must not follow the torn bytes.
		if err := got.Record("d", report{}, true); err != nil {
			t.Fatal(err)
		}
		got.Close()
		_, again, d2, err := Open(path, "fp")
		if err != nil {
			t.Fatalf("truncation at %d: reopening after a record: %v", n, err)
		}
		if _, ok := again["d"]; d2.Torn || len(again) != whole+1 || !ok {
			t.Fatalf("truncation at %d: after a record Torn=%v with %d entries, want false and %d", n, d2.Torn, len(again), whole+1)
		}
	}

	// A torn write appended after a complete journal is a torn final
	// value like any other: dropped and reported.
	path := filepath.Join(dir, "tail.journal.json")
	if err := os.WriteFile(path, append(append([]byte{}, data...), []byte(`{"fingerprint":`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, d, err := Open(path, "fp")
	if err != nil || !d.Torn || len(entries) != len(keys) {
		t.Fatalf("torn tail after a complete journal: err=%v Torn=%v with %d entries", err, d.Torn, len(entries))
	}

	// A power cut can leave the unsynced tail zero-filled instead of
	// cut: the records it covered are lost as one torn final value.
	path = filepath.Join(dir, "zeroed.journal.json")
	zeroed := append(append([]byte{}, data[:ends[1]+1]...), make([]byte, len(data)-ends[1]-1)...)
	if err := os.WriteFile(path, zeroed, 0o644); err != nil {
		t.Fatal(err)
	}
	z, entries, d, err := Open(path, "fp")
	if _, ok := entries["a"]; err != nil || !d.Torn || len(entries) != 1 || !ok {
		t.Fatalf("zero-filled tail: err=%v Torn=%v with %d entries", err, d.Torn, len(entries))
	}
	// The next record cuts the zeros off.
	if err := z.Record("d", report{}, true); err != nil {
		t.Fatal(err)
	}
	z.Close()
	if now, err := os.ReadFile(path); err != nil || bytes.IndexByte(now, 0) >= 0 {
		t.Fatalf("zero-filled tail survived a record (err %v)", err)
	}

	// Damage before the final value is refused: a garbage line between
	// records, and a value that is valid JSON but not a record.
	for name, mid := range map[string]string{"garbage": "{not json\n", "foreign": `{"op":"done"}` + "\n"} {
		path := filepath.Join(dir, name+".journal.json")
		damaged := append(append(append([]byte{}, data[:ends[1]+1]...), mid...), data[ends[1]+1:]...)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Open(path, "fp"); err == nil || !strings.Contains(err.Error(), "delete it") {
			t.Fatalf("%s value before the final one: err = %v, want a refusal naming the recovery action", name, err)
		}
	}
}
