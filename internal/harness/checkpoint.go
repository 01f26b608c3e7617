package harness

import (
	"sync"
	"sync/atomic"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/workload"
)

// CellStore is the state of one run: the memo its cells are answered
// from and recorded in, the Preempt poll of its exact cells, and the
// mid-run snapshot a preempted exact cell left behind, which the cell's
// next run resumes from instead of recomputing. The serving daemon
// keeps one per job across preemptions, and one per cell it executes
// for a peer, all on its one memo. It is safe for concurrent use by a
// sweep's workers; the zero value never preempts and answers from an
// empty memo of its own.
type CellStore struct {
	// Memo holds the run's results; nil means an empty memo of the
	// store's own, made on first use.
	Memo *Memo
	// Preempt, when non-nil, is polled at every checkpoint boundary of
	// every exact cell run with this store. A non-nil return
	// stores the cell's snapshot and aborts the cell with that error —
	// the cooperative preemption point.
	Preempt func() error
	// Resumes, when non-nil, counts snapshots handed back out: cells
	// that continued from a checkpoint instead of recomputing.
	Resumes *atomic.Uint64

	mu    sync.Mutex
	snaps map[string]*core.SystemState
}

// processStore is the store of every sweep run without a Params.Store.
var processStore CellStore

// memo returns the store's memo, making an empty one on first use.
func (c *CellStore) memo() *Memo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Memo == nil {
		c.Memo = NewMemo(0)
	}
	return c.Memo
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

// runExact simulates one exact-engine cell; confine > 0 confines every
// task to that many banks per rank. The snapshot stored under key is
// resumed from when there is one (its bank masks travel in the
// snapshot), and failing that the cell builds fresh; it runs with a
// lazy boundary callback that polls the store's Preempt.
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
