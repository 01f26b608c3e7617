package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/workload"
)

// SnapshotStore receives cell snapshots and finished cell reports
// during a checkpointed sweep, and offers them back when the same cell
// runs again. The serving daemon implements it per job so a preempted
// sweep resumes from its last checkpoint boundary (and keeps cells that
// already finished) instead of recomputing. Implementations are called
// from worker goroutines and must be safe for concurrent use when
// Parallelism > 1.
type SnapshotStore interface {
	// LoadSnapshot returns the stored mid-run snapshot for key, or nil.
	LoadSnapshot(key string) *core.SystemState
	// SaveSnapshot stores a mid-run snapshot for key.
	SaveSnapshot(key string, st *core.SystemState)
	// DropSnapshot discards the snapshot for key (the cell finished; a
	// stale snapshot must not satisfy a later run).
	DropSnapshot(key string)
	// LoadReport returns the stored finished report for key, or nil.
	LoadReport(key string) *core.Report
	// SaveReport stores the finished report for key.
	SaveReport(key string, rep *core.Report)
}

// checkpointEvery resolves the boundary cadence for cfg: the knob when
// set, else four timeslices — frequent enough that a preemption request
// lands quickly, cheap because boundaries without a snapshot cost only
// a leg split.
func (p Params) checkpointEvery(cfg config.System) uint64 {
	if p.CheckpointEvery > 0 {
		return p.CheckpointEvery
	}
	return 4 * cfg.Timeslice()
}

// checkpointKey names a bundle cell for snapshot addressing. It carries
// every coordinate that changes the cell's simulated result (the
// remaining knobs — scale, footprint, windows — are validated against
// the snapshot body on restore), and is filesystem-safe so it doubles
// as the CheckpointDir file stem.
func (p Params) checkpointKey(d config.Density, b bundle, highTemp bool, mix workload.Mix) string {
	temp := "base"
	if highTemp {
		temp = "hot"
	}
	return fmt.Sprintf("%s_%s_%s_%s_seed%d", d, b.name, mix.Name, temp, p.Seed)
}

// snapshotMatches validates that a snapshot read from disk was written
// by this exact cell: same machine config, same run interval, same
// footprint scale. The in-memory store needs no such check (its keys
// live and die with one job), but a CheckpointDir survives across
// invocations with different flags, and resuming a near-miss snapshot
// would silently produce wrong results.
func (p Params) snapshotMatches(st *core.SystemState, cfg config.System, warmup, measure uint64, path string) error {
	want, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	got, err := json.Marshal(st.Cfg)
	if err != nil {
		return err
	}
	if string(got) != string(want) ||
		st.Warmup != warmup || st.Measure != measure ||
		st.FootprintScale != p.FootprintScale {
		return fmt.Errorf("harness: snapshot %s was written for different parameters (delete it to start over)", path)
	}
	return nil
}

// runExact executes one exact-engine cell. A bundle cell (ckey != "")
// first consults the store for a finished report, then restores from a
// prior snapshot when one exists (the in-memory store first, then the
// CheckpointDir file), otherwise builds fresh; it runs with a lazy
// boundary callback that polls Preempt and persists snapshots, and on
// clean completion retires the cell's snapshots so a stale one never
// satisfies a later run. The leg structure and every snapshot/restore
// cycle are invisible to the simulation: the report is byte-identical
// to an uncheckpointed run.
func (p Params) runExact(cfg config.System, mix workload.Mix, ckey string) (*core.Report, error) {
	var path string
	if ckey != "" {
		if p.Snapshots != nil {
			if rep := p.Snapshots.LoadReport(ckey); rep != nil {
				return rep, nil
			}
		}
		if p.CheckpointDir != "" {
			path = filepath.Join(p.CheckpointDir, ckey+".snap")
		}
	}
	w := cfg.TREFW()
	warmup, measure := uint64(p.WarmupWindows)*w, uint64(p.MeasureWindows)*w
	st, err := p.loadSnapshot(ckey, path, cfg, warmup, measure)
	if err != nil {
		return nil, err
	}
	var sys *core.System
	if st != nil {
		sys, err = core.Restore(st, core.Options{Ctx: p.HardCtx})
	} else {
		sys, err = core.Build(cfg, mix, core.Options{FootprintScale: p.FootprintScale, Ctx: p.HardCtx})
		if err != nil {
			err = fmt.Errorf("%s/%s/%s: %w", mix.Name, cfg.Mem.Density, cfg.Refresh.Policy, err)
		}
	}
	if err != nil {
		return nil, err
	}

	// The lazy boundary: polling Preempt costs nothing; state capture
	// happens only when a preemption was requested (snapshot handed to
	// the store, cell aborted with the preemption error) or when a
	// CheckpointDir wants crash durability at every boundary.
	var boundary core.BoundaryFn
	if ckey != "" && (p.Preempt != nil || path != "") {
		boundary = func(capture func() (*core.SystemState, error)) error {
			var perr error
			if p.Preempt != nil {
				perr = p.Preempt()
			}
			if perr == nil && path == "" {
				return nil
			}
			st, err := capture()
			if err != nil {
				return err
			}
			if perr != nil && p.Snapshots != nil {
				p.Snapshots.SaveSnapshot(ckey, st)
			}
			if path != "" {
				if err := core.WriteSnapshotFile(path, st); err != nil {
					return err
				}
			}
			return perr
		}
	}

	var rep *core.Report
	if st != nil {
		rep, err = sys.Resume(p.checkpointEvery(cfg), boundary)
	} else {
		rep, err = sys.RunCheckpointed(warmup, measure, p.checkpointEvery(cfg), boundary)
	}
	if err != nil {
		return nil, err
	}
	if ckey != "" && p.Snapshots != nil {
		p.Snapshots.SaveReport(ckey, rep)
		p.Snapshots.DropSnapshot(ckey)
	}
	if path != "" {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return rep, nil
}

// loadSnapshot locates a resumable snapshot for a bundle cell: the
// in-memory store first, then the CheckpointDir file at path. It
// returns nil when there is none.
func (p Params) loadSnapshot(ckey, path string, cfg config.System, warmup, measure uint64) (*core.SystemState, error) {
	if ckey != "" && p.Snapshots != nil {
		if st := p.Snapshots.LoadSnapshot(ckey); st != nil {
			return st, nil
		}
	}
	if path == "" {
		return nil, nil
	}
	st, err := core.ReadSnapshotFile(path)
	switch {
	case err == nil:
		if err := p.snapshotMatches(st, cfg, warmup, measure, path); err != nil {
			return nil, err
		}
		return st, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil // fresh run
	default:
		// Corrupt or version-skewed files propagate their typed
		// refusal rather than being silently recomputed over.
		return nil, err
	}
}
