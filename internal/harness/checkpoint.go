package harness

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/journal"
	"refsched/internal/workload"
)

// CellStore is the one place a finished cell is kept, keyed by
// CellSpec.Key: Answer returns a cell's report from the store when it
// holds one and computes it otherwise. It also holds the mid-run
// snapshot a preempted exact cell left behind, which the cell's next
// run resumes from, so a preempted sweep continues where it stopped
// instead of recomputing. The serving daemon keeps one per job across
// preemptions, and one per cell it executes for a peer; a sweep run
// without one uses the process-wide store, so a later figure reuses the
// cells an earlier one simulated. A store made by OpenCellStore also
// keeps every report it computes in a log file, from which a later
// process's store answers them. It keeps at most maxStoredReports
// finished reports in memory and drops the oldest past that. The
// reports it hands out are shared by every caller that asks for the
// same key, so they must never be mutated. It is safe for concurrent
// use by a sweep's workers; the zero value is an empty store without a
// log that never preempts.
type CellStore struct {
	// Preempt, when non-nil, is polled at every checkpoint boundary of
	// every exact cell run with this store. A non-nil return
	// stores the cell's snapshot and aborts the cell with that error —
	// the cooperative preemption point.
	Preempt func() error
	// Resumes, when non-nil, counts snapshots handed back out: cells
	// that continued from a checkpoint instead of recomputing.
	Resumes *atomic.Uint64

	// log, when non-nil, receives every report the store computes.
	log     *journal.Journal
	logPath string

	mu sync.Mutex
	// recorded holds the raw records that were on record in the log at
	// OpenCellStore, each until Answer first decodes it into reports.
	recorded map[string]json.RawMessage
	snaps    map[string]*core.SystemState
	reports  map[string]*core.Report
	order    []string // keys of reports, oldest first
}

// cellLogFormat is the fingerprint of every CellStore log. A record is
// keyed by CellSpec.Key, which names every knob that changes a result,
// so one file can hold cells of several presets and a record answers
// only the computation that wrote it. Change it only when the record
// encoding changes.
const cellLogFormat = "cellstore v1"

// OpenCellStore returns a store backed by the log file at path: the
// reports on record there answer their cells, and every report the
// store computes is appended with fsync before Answer returns it, so
// the file, open from the first append on, needs no closing. An absent
// file opens empty. A torn final record, which a kill mid-append leaves
// behind, and the entries of a log under another format are dropped
// and reported in the Discarded; other damage is an error naming the
// file.
func OpenCellStore(path string) (*CellStore, journal.Discarded, error) {
	log, recorded, dropped, err := journal.Open(path, cellLogFormat)
	if err != nil {
		return nil, dropped, err
	}
	return &CellStore{log: log, logPath: path, recorded: recorded}, dropped, nil
}

// maxStoredReports bounds a CellStore's finished reports. A report is
// about 2.6 KB as JSON, so a full store holds about 10 MB;
// `experiments -quick all` stores 360.
const maxStoredReports = 4096

// processStore is the store of every sweep run without a Params.Store.
var processStore CellStore

// TakeSnapshot removes and returns the mid-run snapshot stored for key,
// or nil. core.Restore aliases layer state by reference, so a snapshot
// that has been resumed once is live simulation state and must never
// restore a second time; a resumed run that is preempted again stores a
// fresh, further-along snapshot.
func (c *CellStore) TakeSnapshot(key string) *core.SystemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.snaps[key]
	if !ok {
		return nil
	}
	delete(c.snaps, key)
	if c.Resumes != nil {
		c.Resumes.Add(1)
	}
	return st
}

// PutSnapshot stores a mid-run snapshot for key, for the next run of
// that cell to resume: the cell's own preemption files one, and so
// does a fan-out coordinator for a snapshot a peer shipped back.
func (c *CellStore) PutSnapshot(key string, st *core.SystemState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snaps == nil {
		c.snaps = make(map[string]*core.SystemState)
	}
	c.snaps[key] = st
}

// report returns the report the store holds for key, decoding the
// record on record for it in the log the first time it is asked for,
// or nil. A record that no longer decodes is treated as absent, so its
// cell simply runs again.
func (c *CellStore) report(key string) *core.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep := c.reports[key]; rep != nil {
		return rep
	}
	raw, ok := c.recorded[key]
	if !ok {
		return nil
	}
	delete(c.recorded, key)
	rep := new(core.Report)
	if json.Unmarshal(raw, rep) != nil {
		return nil
	}
	c.keep(key, rep)
	return rep
}

// finish stores key's report, dropping the oldest past
// maxStoredReports, and retires key's snapshot, so a stale one never
// satisfies a later run.
func (c *CellStore) finish(key string, rep *core.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keep(key, rep)
}

// keep is finish with c.mu held.
func (c *CellStore) keep(key string, rep *core.Report) {
	if c.reports == nil {
		c.reports = make(map[string]*core.Report)
	}
	if _, ok := c.reports[key]; !ok {
		c.order = append(c.order, key)
		if len(c.order) > maxStoredReports {
			delete(c.reports, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.reports[key] = rep
	delete(c.snaps, key)
}

// Answer returns the report of the cell stored under key: the report
// the store holds, else the one on record in its log, else the one
// compute returns. A computed report is stored and, with a log,
// appended with fsync before Answer returns. A failed append fails the
// cell with an error naming the log file, since a report missing from
// the log would void the promise that a rerun finishes the run.
func (c *CellStore) Answer(key string, compute func() (*core.Report, error)) (*core.Report, error) {
	if rep := c.report(key); rep != nil {
		return rep, nil
	}
	rep, err := compute()
	if err != nil {
		return nil, err
	}
	if c.log != nil {
		if err := c.log.Record(key, rep, true); err != nil {
			return nil, fmt.Errorf("harness: recording cell in %s: %w", c.logPath, err)
		}
	}
	c.finish(key, rep)
	return rep, nil
}

// runExact simulates one exact-engine cell for CellStore.Answer;
// confine > 0 confines every task to that many banks per rank. The
// snapshot stored under key is resumed from when there is one (its bank
// masks travel in the snapshot), and failing that the cell builds
// fresh; it runs with a lazy boundary callback that polls the store's
// Preempt.
// Boundaries fall every four timeslices — frequent enough that a
// preemption request lands quickly, cheap because a boundary without a
// snapshot costs only a leg split. The leg structure and every
// snapshot/restore cycle are invisible to the simulation: the report is
// byte-identical to an uncheckpointed run.
func (p Params) runExact(store *CellStore, cfg config.System, mix workload.Mix, confine int, key string) (*core.Report, error) {
	st := store.TakeSnapshot(key)
	var sys *core.System
	var err error
	if st != nil {
		sys, err = core.Restore(st, core.Options{Ctx: p.HardCtx})
	} else {
		sys, err = core.Build(cfg, mix, core.Options{FootprintScale: p.FootprintScale, Ctx: p.HardCtx})
		if err == nil && confine > 0 {
			err = sys.SetTaskMasks(confineMasks(cfg, len(sys.Kernel.Tasks()), confine))
		}
		if err != nil {
			err = cellError(mix, cfg, err)
		}
	}
	if err != nil {
		return nil, err
	}

	// The lazy boundary: polling Preempt costs nothing; state is
	// captured only when a preemption was requested.
	var boundary core.BoundaryFn
	if store.Preempt != nil {
		boundary = func(capture func() (*core.SystemState, error)) error {
			perr := store.Preempt()
			if perr == nil {
				return nil
			}
			st, err := capture()
			if err != nil {
				return err
			}
			store.PutSnapshot(key, st)
			return perr
		}
	}

	every := 4 * cfg.Timeslice()
	if st != nil {
		return sys.Resume(every, boundary)
	}
	w := cfg.TREFW()
	return sys.RunCheckpointed(uint64(p.WarmupWindows)*w, uint64(p.MeasureWindows)*w, every, boundary)
}
