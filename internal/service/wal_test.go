package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestJobWALRecovery is the crash-consistency contract end to end: a
// ledger holding acknowledged-but-unfinished accepts (plus a torn tail
// from a mid-write kill) is replayed on startup under the original job
// ids, those jobs run to completion, fresh ids continue past the
// recovered sequence, and a clean shutdown compacts the ledger to
// empty.
func TestJobWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")

	// A previous daemon's ledger: two acknowledged jobs, no done
	// records (it was killed before finishing them)...
	w, pending, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh ledger pending = %d", len(pending))
	}
	req7, req8 := cellReq(7), cellReq(8)
	if err := w.appendAccept(walRecord{ID: "job-000007", Tenant: "t9", Req: &req7}); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAccept(walRecord{ID: "job-000008", Req: &req8}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// ...plus a torn final line from the kill itself.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The restarted daemon replays both accepts and drops the torn line.
	s, ts := newTestServer(t, func(c *Config) {
		c.WALPath = path
		c.Workers = 2
	})
	if s.wal.recovered != 2 || s.wal.torn != 1 {
		t.Fatalf("recovered/torn = %d/%d, want 2/1", s.wal.recovered, s.wal.torn)
	}
	st7 := waitJobState(t, ts, "job-000007", JobDone)
	if st7.Tenant != "t9" {
		t.Fatalf("recovered job tenant = %q, want t9", st7.Tenant)
	}
	waitJobState(t, ts, "job-000008", JobDone)

	// Fresh ids continue past the recovered sequence instead of
	// colliding with it.
	resp, out := postJob(t, ts, cellReq(9))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh post status = %d", resp.StatusCode)
	}
	if id := out["id"].(string); id != "job-000009" {
		t.Fatalf("fresh job id = %q, want job-000009", id)
	}
	waitJobState(t, ts, "job-000009", JobDone)

	// A clean drain leaves nothing pending in the compacted ledger.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	pending, torn, err := reduceWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || torn {
		t.Fatalf("after clean shutdown pending/torn = %d/%v, want 0/false", len(pending), torn)
	}
}
