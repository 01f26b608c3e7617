package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// has reports whether key is on record in j.
func has(j *Journal, key string) bool {
	var v json.RawMessage
	return j.Lookup(key, &v)
}

type report struct {
	IPC    float64
	Events uint64
	Name   string
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig10.journal.json")
	j, err := Open(path, "v1 scale=64")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 || j.Dropped() != 0 {
		t.Fatalf("fresh journal: Len=%d Dropped=%d", j.Len(), j.Dropped())
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
	j2, err := Open(path, "v1 scale=64")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", j2.Len())
	}
	var out report
	if !j2.Lookup("WL-1|32Gb|codesign", &out) {
		t.Fatal("recorded cell not found after reopen")
	}
	if out != in {
		t.Fatalf("round-trip mismatch: got %+v, want %+v", out, in)
	}
	if has(j2, "WL-3|32Gb|codesign") {
		t.Error("Has reported an unrecorded cell")
	}
	if j2.Lookup("nope", &out) {
		t.Error("Lookup reported an unrecorded cell")
	}
}

func TestJournalOverwriteKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	j, _ := Open(path, "fp")
	j.Record("k", report{IPC: 1}, true)
	j.Record("k", report{IPC: 2}, true)
	j.Close()
	var out report
	j2, _ := Open(path, "fp")
	if !j2.Lookup("k", &out) || out.IPC != 2 {
		t.Fatalf("latest record must win: %+v", out)
	}
	if j2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j2.Len())
	}
}

func TestJournalFingerprintMismatchDropsEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	j, _ := Open(path, "scale=64")
	j.Record("a", report{}, true)
	j.Record("b", report{}, true)
	j.Close()

	// Same file, different sweep parameters: stale entries must not be
	// resumed into wrong results.
	j2, err := Open(path, "scale=8")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 0 {
		t.Fatalf("stale journal resumed %d entries", j2.Len())
	}
	if j2.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j2.Dropped())
	}
	// Recording under the new fingerprint rewrites the file; the old
	// fingerprint is gone for good.
	j2.Record("c", report{}, true)
	j2.Close()
	j3, _ := Open(path, "scale=8")
	if j3.Len() != 1 || has(j3, "a") {
		t.Fatal("old-fingerprint entries leaked into the rewritten journal")
	}
}

func TestJournalCorruptFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, "fp")
	if err == nil {
		t.Fatal("corrupt journal must be an explicit error, not a silent restart")
	}
	if !strings.Contains(err.Error(), "delete it") {
		t.Errorf("error %q should tell the operator the recovery action", err)
	}
}

func TestJournalAtomicFlushLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.json")
	j, _ := Open(path, "fp")
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

func TestJournalMissingDirErrors(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "j.json"), "fp")
	if err != nil {
		t.Fatal(err) // opening is fine: the file just doesn't exist yet
	}
	if err := j.Record("k", report{}, true); err == nil {
		t.Fatal("recording into a missing directory must surface an error")
	}
}

func TestJournalEachSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal.json")
	j, err := Open(path, "refschedd-cache-v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"zeta", "last"}, {"alpha", "first"}, {"mid", "middle"}} {
		if err := j.Record(kv[0], kv[1], false); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Reopen as a fresh process and iterate: sorted keys, raw JSON intact.
	j2, err := Open(path, "refschedd-cache-v1")
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals []string
	j2.Each(func(k string, raw json.RawMessage) {
		keys = append(keys, k)
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("decoding %q: %v", k, err)
		}
		vals = append(vals, s)
	})
	if strings.Join(keys, ",") != "alpha,mid,zeta" {
		t.Fatalf("Each order = %v, want sorted", keys)
	}
	if strings.Join(vals, ",") != "first,middle,last" {
		t.Fatalf("Each values = %v", vals)
	}
}

func TestRecordEncodingFailureLeavesJournalUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal.json")
	j, err := Open(path, "v1")
	if err != nil {
		t.Fatal(err)
	}
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
	j2, err := Open(path, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 || !has(j2, "keep") || has(j2, "bad") {
		t.Fatalf("failed record mutated the journal: len=%d", j2.Len())
	}
}

// TestJournalOpenAbsentWritesNothing: opening costs no write when the
// file is absent or already compact — a daemon's start-up pays no
// fsync for its journal.
func TestJournalOpenAbsentWritesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.journal.json")
	j, err := Open(path, "v1")
	if err != nil {
		t.Fatal(err)
	}
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
	j2, err := Open(path, "v1")
	if err != nil {
		t.Fatal(err)
	}
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
	j, err := Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
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
	j, err := Open(path, "v4 mode=exact scale=64")
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if j.Len() != 2 || !j.Lookup("WL-1|16Gb|codesign", &got) ||
		got != (report{IPC: 0.30000000000000004, Events: 1<<53 - 1, Name: "a"}) {
		t.Fatalf("parent-format journal: Len=%d codesign=%+v", j.Len(), got)
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
	j2, err := Open(path, "v4 mode=exact scale=64")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 3 || !has(j2, "WL-1|16Gb|perbank") || !has(j2, "WL-1|16Gb|allbank") {
		t.Fatalf("reopened Len = %d, want 3", j2.Len())
	}
}

// TestJournalPartialWriteRefused models a torn write at every depth of
// a real journal. A kill mid-append tears only the final record: Open
// drops and counts it, keeps every record before it, and the next
// Record compacts the tear away instead of appending after it. A tear
// inside the header, or damage before the final value, is refused with
// an error naming the recovery action, never resumed silently.
func TestJournalPartialWriteRefused(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal.json")
	j, err := Open(ref, "fp")
	if err != nil {
		t.Fatal(err)
	}
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

	// Truncations at a few representative depths: inside the
	// fingerprint header, mid-record, and inside the last record's
	// closing brace (len-1 only strips the trailing newline, which still
	// parses).
	for _, n := range []int{1, len(data) / 4, len(data) / 2, len(data) - 2} {
		path := filepath.Join(dir, "torn.journal.json")
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Open(path, "fp")
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
		if got.Torn() != 1 || got.Len() != whole {
			t.Fatalf("truncation at %d/%d: Torn=%d Len=%d, want 1 and the %d whole records", n, len(data), got.Torn(), got.Len(), whole)
		}
		for i, k := range keys {
			if has(got, k) != (i < whole) {
				t.Fatalf("truncation at %d/%d: Has(%q) = %v", n, len(data), k, has(got, k))
			}
		}
		// The next record must not follow the torn bytes.
		if err := got.Record("d", report{}, true); err != nil {
			t.Fatal(err)
		}
		got.Close()
		again, err := Open(path, "fp")
		if err != nil {
			t.Fatalf("truncation at %d: reopening after a record: %v", n, err)
		}
		if again.Torn() != 0 || again.Len() != whole+1 || !has(again, "d") {
			t.Fatalf("truncation at %d: after a record Torn=%d Len=%d, want 0 and %d", n, again.Torn(), again.Len(), whole+1)
		}
	}

	// A torn write appended after a complete journal is a torn final
	// value like any other: dropped and counted.
	path := filepath.Join(dir, "tail.journal.json")
	if err := os.WriteFile(path, append(append([]byte{}, data...), []byte(`{"fingerprint":`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, "fp")
	if err != nil || got.Torn() != 1 || got.Len() != len(keys) {
		t.Fatalf("torn tail after a complete journal: err=%v Torn=%d Len=%d", err, got.Torn(), got.Len())
	}

	// A power cut can leave the unsynced tail zero-filled instead of
	// cut: the records it covered are lost as one torn final value.
	path = filepath.Join(dir, "zeroed.journal.json")
	zeroed := append(append([]byte{}, data[:ends[1]+1]...), make([]byte, len(data)-ends[1]-1)...)
	if err := os.WriteFile(path, zeroed, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = Open(path, "fp")
	if err != nil || got.Torn() != 1 || got.Len() != 1 || !has(got, "a") {
		t.Fatalf("zero-filled tail: err=%v Torn=%d Len=%d", err, got.Torn(), got.Len())
	}

	// Damage before the final value is refused: a garbage line between
	// records, and a value that is valid JSON but not a record.
	for name, mid := range map[string]string{"garbage": "{not json\n", "foreign": `{"op":"done"}` + "\n"} {
		path := filepath.Join(dir, name+".journal.json")
		damaged := append(append(append([]byte{}, data[:ends[1]+1]...), mid...), data[ends[1]+1:]...)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, "fp"); err == nil || !strings.Contains(err.Error(), "delete it") {
			t.Fatalf("%s value before the final one: err = %v, want a refusal naming the recovery action", name, err)
		}
	}
}
