package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/workload"
)

// CellStore holds exact cells' progress across runs, keyed by
// CellSpec.Key: the mid-run snapshot a preempted cell left behind, and
// the report of a cell that finished. A run consults it before
// simulating — a stored report answers the cell outright, a stored
// snapshot is resumed from — so a preempted sweep continues where it
// stopped instead of recomputing. The serving daemon keeps one per job
// across preemptions, and one per cell it executes for a peer. It is
// safe for concurrent use by a sweep's workers; the zero value is an
// empty store that never preempts.
type CellStore struct {
	// Preempt, when non-nil, is polled at every checkpoint boundary of
	// every exact cell run with this store. A non-nil return
	// stores the cell's snapshot and aborts the cell with that error —
	// the cooperative preemption point.
	Preempt func() error
	// Resumes, when non-nil, counts snapshots handed back out: cells
	// that continued from a checkpoint instead of recomputing.
	Resumes *atomic.Uint64

	mu      sync.Mutex
	snaps   map[string]*core.SystemState
	reports map[string]*core.Report
}

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

func (c *CellStore) report(key string) *core.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports[key]
}

// finish stores key's report and retires its snapshot, so a stale one
// never satisfies a later run.
func (c *CellStore) finish(key string, rep *core.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reports == nil {
		c.reports = make(map[string]*core.Report)
	}
	c.reports[key] = rep
	delete(c.snaps, key)
}

// runExact executes one exact-engine cell; confine > 0 confines every
// task to that many banks per rank. A cell run with a store is answered
// by the report stored under key when there is one, resumes from the
// snapshot stored there when there is one (its bank masks travel in the
// snapshot), and otherwise builds fresh; it runs with a lazy boundary
// callback that polls the store's Preempt, and on completion its report
// is stored.
// Boundaries fall every four timeslices — frequent enough that a
// preemption request lands quickly, cheap because a boundary without a
// snapshot costs only a leg split. The leg structure and every
// snapshot/restore cycle are invisible to the simulation: the report is
// byte-identical to an uncheckpointed run.
func (p Params) runExact(cfg config.System, mix workload.Mix, confine int, key string) (*core.Report, error) {
	store := p.Store
	var st *core.SystemState
	if store != nil {
		if rep := store.report(key); rep != nil {
			return rep, nil
		}
		st = store.TakeSnapshot(key)
	}
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
			err = fmt.Errorf("%s/%s/%s: %w", mix.Name, cfg.Mem.Density, cfg.Refresh.Policy, err)
		}
	}
	if err != nil {
		return nil, err
	}

	// The lazy boundary: polling Preempt costs nothing; state is
	// captured only when a preemption was requested.
	var boundary core.BoundaryFn
	if store != nil && store.Preempt != nil {
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
	var rep *core.Report
	if st != nil {
		rep, err = sys.Resume(every, boundary)
	} else {
		w := cfg.TREFW()
		rep, err = sys.RunCheckpointed(uint64(p.WarmupWindows)*w, uint64(p.MeasureWindows)*w, every, boundary)
	}
	if err != nil {
		return nil, err
	}
	if store != nil {
		store.finish(key, rep)
	}
	return rep, nil
}
