package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"refsched/internal/journal"
)

// The job WAL is the acknowledged-work ledger: a journal under its own
// fingerprint whose entries are the accepted jobs still pending, keyed
// by job id. An accept is a record of the job; it is fsynced before the
// HTTP layer acknowledges the job (202), so a SIGKILL at any instant
// leaves every acknowledged but unfinished job on durable record, and a
// restarted daemon replays those back onto its queue with their
// original ids, tenants, priorities and absolute deadlines — the soak
// drill's "zero acknowledged-job loss".
//
// A job that reaches a terminal state is deleted from the ledger by a
// null record, appended without fsync: losing one to a crash only means
// the job is re-run once on restart (its result lands in the same cache
// entry), never that an acknowledgement is broken. Opening drops a torn
// final record (its accept was never acknowledged) and refuses damage
// before it, which would hide accepts. The file is compacted to the
// pending set on every open and close, so it stays proportional to
// in-flight work, not daemon lifetime.

// walFingerprint binds the job WAL's record format.
const walFingerprint = "refschedd-wal v1"

// walRecord is an accepted job, the value of its ledger entry.
type walRecord struct {
	ID         string     `json:"-"` // the entry's key
	Tenant     string     `json:"tenant,omitempty"`
	Req        *Request   `json:"req"`
	DeadlineAt *time.Time `json:"deadline_at,omitempty"`
}

// jobWAL is the open ledger.
type jobWAL struct {
	path string
	jnl  *journal.Journal

	accepts atomic.Uint64
	dones   atomic.Uint64
	ioErrs  atomic.Uint64
	// recovered/torn describe what open found: pending accepts replayed
	// and torn final records dropped.
	recovered uint64
	torn      uint64
}

// openWAL loads the ledger at path, compacts it to the pending set, and
// returns the still-pending accepts in acceptance order for replay. A
// file that is not empty and is not a job WAL journal — an earlier
// release's ledger among them — is refused, never discarded: its
// records are acknowledged jobs.
func openWAL(path string) (*jobWAL, []walRecord, error) {
	jnl, entries, dropped, err := journal.Open(path, walFingerprint)
	if err != nil {
		return nil, nil, fmt.Errorf("service: job wal: %w (a ledger an earlier release wrote must be drained by that release first)", err)
	}
	if dropped.Foreign {
		return nil, nil, fmt.Errorf("service: job wal %s is a journal of another kind, not a job WAL", path)
	}
	pending := make([]walRecord, 0, len(entries))
	for id, raw := range entries {
		rec := walRecord{ID: id}
		if json.Unmarshal(raw, &rec) != nil || rec.Req == nil {
			return nil, nil, fmt.Errorf("service: job wal %s: entry %q is not an accepted job", path, id)
		}
		pending = append(pending, rec)
	}
	// Ids are minted and accepted under jobsMu, so their sequence
	// numbers are the acceptance order.
	sort.Slice(pending, func(a, b int) bool {
		_, sa, _ := splitJobID(pending[a].ID)
		_, sb, _ := splitJobID(pending[b].ID)
		if sa != sb {
			return sa < sb
		}
		return pending[a].ID < pending[b].ID
	})
	if err := jnl.Compact(entries); err != nil {
		return nil, nil, fmt.Errorf("service: job wal: %w", err)
	}
	w := &jobWAL{path: path, jnl: jnl, recovered: uint64(len(pending))}
	if dropped.Torn {
		w.torn = 1
	}
	return w, pending, nil
}

// appendAccept makes a job acceptance durable. It must return before
// the job is acknowledged to the client.
func (w *jobWAL) appendAccept(rec walRecord) error {
	if err := w.jnl.Record(rec.ID, rec, true); err != nil {
		w.ioErrs.Add(1)
		return err
	}
	w.accepts.Add(1)
	return nil
}

// appendDone deletes a job that reached a terminal state from the
// ledger. Unsynced by design: see the comment at the top of this file.
func (w *jobWAL) appendDone(id string) error {
	if err := w.jnl.Record(id, nil, false); err != nil {
		w.ioErrs.Add(1)
		return err
	}
	w.dones.Add(1)
	return nil
}

// close compacts the ledger to whatever is still pending (empty after a
// clean drain) and closes it.
func (w *jobWAL) close() error {
	if err := w.jnl.Close(); err != nil {
		return err
	}
	jnl, entries, _, err := journal.Open(w.path, walFingerprint)
	if err != nil {
		return fmt.Errorf("service: job wal: %w", err)
	}
	return jnl.Compact(entries)
}
