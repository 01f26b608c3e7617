package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"refsched/internal/journal"
)

// The job WAL is the acknowledged-work ledger, a journal.Log of one
// record per accepted job and per job that reached a terminal state.
// The accept record is fsynced before the HTTP layer acknowledges the
// job (202), so a SIGKILL at any instant leaves every acknowledged but
// unfinished job on durable record; a restarted daemon replays those
// back onto its queue with their original ids, tenants, priorities and
// absolute deadlines — the soak drill's "zero acknowledged-job loss".
//
// Done records are appended without fsync: losing one to a crash only
// means the job is re-run once on restart (its result lands in the same
// cache entry), never that an acknowledgement is broken. Replay drops a
// torn final record (its accept was never acknowledged) and refuses
// damage before it, which would hide accepts. The file is compacted to
// the pending set on every open and close, so it stays proportional to
// in-flight work, not daemon lifetime.

// walRecord is one WAL line.
type walRecord struct {
	Op         string     `json:"op"` // "accept" | "done"
	ID         string     `json:"id"`
	Tenant     string     `json:"tenant,omitempty"`
	Req        *Request   `json:"req,omitempty"`
	DeadlineAt *time.Time `json:"deadline_at,omitempty"`
}

// jobWAL is the open ledger.
type jobWAL struct {
	path string
	log  *journal.Log

	accepts atomic.Uint64
	dones   atomic.Uint64
	ioErrs  atomic.Uint64
	// recovered/torn describe what open found: pending accepts replayed
	// and torn final records dropped.
	recovered uint64
	torn      uint64
}

// openWAL loads the ledger at path, compacts it to the pending set, and
// returns the still-pending accepts for replay.
func openWAL(path string) (*jobWAL, []walRecord, error) {
	pending, torn, err := reduceWAL(path)
	if err != nil {
		return nil, nil, err
	}
	log, err := journal.OpenLog(path)
	if err != nil {
		return nil, nil, err
	}
	w := &jobWAL{path: path, log: log, recovered: uint64(len(pending))}
	if torn {
		w.torn = 1
	}
	return w, pending, nil
}

// reduceWAL replays the ledger, reduces it to the accepts without a
// matching done (in acceptance order), and atomically rewrites it to
// just those.
func reduceWAL(path string) (pending []walRecord, torn bool, err error) {
	var accepts []walRecord
	done := map[string]bool{}
	torn, err = journal.Replay(path, func(raw json.RawMessage) error {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		switch {
		case rec.Op == "accept" && rec.ID != "" && rec.Req != nil:
			accepts = append(accepts, rec)
		case rec.Op == "done" && rec.ID != "":
			done[rec.ID] = true
		default:
			return errors.New("not a job WAL record")
		}
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("service: job wal: %w", err)
	}
	for _, rec := range accepts {
		if !done[rec.ID] {
			pending = append(pending, rec)
		}
	}
	return pending, torn, journal.Replace(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, rec := range pending {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// appendAccept makes a job acceptance durable. It must return before
// the job is acknowledged to the client.
func (w *jobWAL) appendAccept(rec walRecord) error {
	rec.Op = "accept"
	if err := w.log.Append(rec, true); err != nil {
		w.ioErrs.Add(1)
		return err
	}
	w.accepts.Add(1)
	return nil
}

// appendDone records a terminal state. Unsynced by design: see the
// comment at the top of this file.
func (w *jobWAL) appendDone(id string) error {
	if err := w.log.Append(walRecord{Op: "done", ID: id}, false); err != nil {
		w.ioErrs.Add(1)
		return err
	}
	w.dones.Add(1)
	return nil
}

// close compacts the ledger to whatever is still pending (empty after a
// clean drain) and closes it.
func (w *jobWAL) close() error {
	if err := w.log.Close(); err != nil {
		return err
	}
	_, _, err := reduceWAL(w.path)
	return err
}
