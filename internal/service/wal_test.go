package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"refsched/internal/cluster"
	"refsched/internal/journal"
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
	if _, err := f.WriteString(`{"key":"job-000009","value":{"tenant":"t`); err != nil {
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
	_, left, dropped, err := journal.Open(path, walFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 || dropped.Torn {
		t.Fatalf("after clean shutdown pending/torn = %d/%v, want 0/false", len(left), dropped.Torn)
	}
}

// TestJobWALRecoveryNodeIDs: a cluster node's ledger holds ids that name
// the node. Replay keeps them, and fresh ids continue past the highest
// recovered sequence number, not the last one replayed.
func TestJobWALRecoveryNodeIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	req7, req8 := cellReq(7), cellReq(8)
	if err := w.appendAccept(walRecord{ID: "job-n0-000012", Req: &req7}); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAccept(walRecord{ID: "job-n0-000003", Req: &req8}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	clu, err := cluster.New(cluster.Config{NodeID: "n0", Peers: []cluster.Member{{ID: "n0", Addr: "127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) {
		c.WALPath = path
		c.Cluster = clu
	})
	waitJobState(t, ts, "job-n0-000012", JobDone)
	waitJobState(t, ts, "job-n0-000003", JobDone)

	resp, out := postJob(t, ts, cellReq(9))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh post status = %d", resp.StatusCode)
	}
	if id := out["id"].(string); id != "job-n0-000013" {
		t.Fatalf("fresh job id = %q, want job-n0-000013", id)
	}
}

// TestJobWALReplaysInSequenceOrder: the pending jobs come back in the
// order of the sequence numbers in their ids, which is the order they
// were accepted in, also where that differs from the ids' string order.
func TestJobWALReplaysInSequenceOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"job-999998", "job-999999", "job-1000000", "job-1000001", "job-1000002"}
	for i, id := range ids {
		req := cellReq(uint64(i))
		if err := w.appendAccept(walRecord{ID: id, Req: &req}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.appendDone("job-1000001"); err != nil {
		t.Fatal(err)
	}
	// A kill: the ledger is reopened without a close.
	_, pending, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range pending {
		got = append(got, rec.ID)
	}
	if want := "[job-999998 job-999999 job-1000000 job-1000002]"; fmt.Sprint(got) != want {
		t.Fatalf("replay order %v, want %s", got, want)
	}
}

// TestJobWALRefusesForeignFile: a ledger file that is not empty and is
// not a job WAL journal — an earlier release's accept/done ledger, or a
// journal of another kind — is refused with an error naming it and
// left as it was, never discarded; an empty file, which is what an
// earlier release leaves after a clean drain, opens.
func TestJobWALRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"one accept":    `{"op":"accept","id":"job-000001","req":{"figure":"fig10"}}` + "\n",
		"accept + done": `{"op":"accept","id":"job-000001","req":{"figure":"fig10"}}` + "\n" + `{"op":"done","id":"job-000001"}` + "\n",
		"cache journal": `{"fingerprint":"refschedd-cache-v1","entries":{}}` + "\n",
	} {
		path := filepath.Join(dir, "jobs.wal")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWAL(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: openWAL err = %v, want a refusal naming %s", name, err, path)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != content {
			t.Fatalf("%s: the refused ledger was changed (err %v)", name, err)
		}
	}
	path := filepath.Join(dir, "drained.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, pending, err := openWAL(path); err != nil || len(pending) != 0 {
		t.Fatalf("empty ledger: %d pending, err %v", len(pending), err)
	}
}
