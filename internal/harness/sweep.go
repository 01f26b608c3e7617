package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"refsched/internal/chaos"
	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/journal"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// cellJob is one simulation cell of a figure sweep: an addressing key
// the driver uses to look the report back up, the cell identity for
// progress lines, and the self-contained closure that runs it.
type cellJob struct {
	key  string
	cell runner.Cell
	run  func() (*core.Report, error)
}

// cellKey joins a sweep cell's coordinates into a lookup key.
func cellKey(parts ...string) string {
	return strings.Join(parts, "|")
}

// bundleJob builds the common density × bundle × mix cell.
func (p Params) bundleJob(key string, d config.Density, b bundle, highTemp bool, mix workload.Mix) cellJob {
	return cellJob{
		key:  key,
		cell: runner.Cell{Mix: mix.Name, Density: d.String(), Bundle: b.name, Seed: p.Seed, Hot: highTemp, Remotable: true},
		run:  func() (*core.Report, error) { return p.runBundle(d, b, highTemp, mix) },
	}
}

// Fingerprint identifies the parameter set a journal's entries are
// valid for: every knob that changes a cell's simulated result, and so
// exactly the knobs a CellSpec carries. Mix selection is deliberately
// absent — it changes which cells exist, not what any cell computes,
// and cells are already keyed individually. The Store is likewise
// absent: checkpoint boundaries only split the engine's run into legs
// and a resumed cell is byte-identical to an uninterrupted one, so a
// checkpointed run may resume a plain journal and vice versa.
// (Callers keying whole rendered figures — the serving daemon's result
// cache — must additionally key on the mix selection, since it changes
// which rows a figure renders.)
func (p Params) Fingerprint() string {
	// v2: Report JSON moved to stable snake_case field names, so v1
	// journals (PascalCase keys) must not be resumed.
	// v3: Report gained sched_skips_per_pick; v2 journal entries would
	// resume with the histogram silently empty.
	// v4: the Mode knob landed; an approx cell must never satisfy a
	// resumed exact sweep (or vice versa), so the tier is part of the
	// fingerprint.
	return fmt.Sprintf("v4 mode=%s scale=%d fp=%g warm=%d meas=%d seed=%d",
		p.mode(), p.Scale, p.FootprintScale, p.WarmupWindows, p.MeasureWindows, p.Seed)
}

// ctx returns the sweep's cancellation context.
func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// runCells executes a sweep's cells across Params.Parallelism workers
// and returns the reports keyed by each job's key, plus the quarantined
// failures.
//
// This is the pipeline's fault boundary. A cell that fails or panics is
// captured as a typed *runner.CellError and quarantined (unless
// Params.FailFast restores abort-on-first-error semantics). With
// journaling enabled every completed cell is appended and fsynced as it
// finishes, and with Resume set, cells already on record are decoded
// instead of re-run — JSON round-trips float64 exactly, so a resumed
// sweep renders byte-identical tables.
// Cells share no mutable state and results are collected by submission
// index, so the returned map is identical to a serial in-order run;
// Verbose lines go through the runner's single collector goroutine and
// never interleave.
//
// The error is non-nil only when the sweep did not run to completion:
// cancellation, a fail-fast failure, or a journal write failure (which
// would silently void the resume guarantee if ignored).
func (p Params) runCells(figID string, jobs []cellJob) (map[string]*core.Report, []*runner.CellError, error) {
	out := make(map[string]*core.Report, len(jobs))

	var jnl *journal.Journal
	if p.JournalDir != "" {
		var err error
		if jnl, err = journal.Open(filepath.Join(p.JournalDir, figID+".journal.json"), p.Fingerprint()); err != nil {
			return nil, nil, err
		}
		defer jnl.Close() // every record is fsynced as it is appended
	}

	// Resume: satisfy cells from the journal and run only the rest.
	toRun := jobs
	if jnl != nil && p.Resume {
		toRun = toRun[:0:0]
		for _, j := range jobs {
			var rep core.Report
			if jnl.Lookup(j.key, &rep) {
				out[j.key] = &rep
				continue
			}
			toRun = append(toRun, j)
		}
	}

	rjobs := make([]runner.Job[*core.Report], len(toRun))
	for i, j := range toRun {
		run := j.run
		if p.Chaos != nil {
			// HardCtx (deadline/watchdog cancellation) interrupts chaos
			// stalls, so a killed job terminates within its bound
			// instead of waiting out every injected sleep.
			run = chaos.WrapContext(p.Chaos, figID+"|"+j.key, p.HardCtx, run)
		}
		rjobs[i] = runner.Job[*core.Report]{Cell: j.cell, Run: run}
	}

	// The collector goroutine serializes journaling and progress output.
	var journalErr error
	onDone := func(i int, c runner.Cell, rep *core.Report) {
		if jnl != nil && journalErr == nil {
			journalErr = jnl.Record(toRun[i].key, rep, true)
		}
		if p.Verbose {
			fmt.Printf("  ran %-6s %-5s %-10s hIPC=%.4f lat=%.0f stalled=%.4f\n",
				c.Mix, c.Density, c.Bundle, rep.HarmonicIPC, rep.AvgMemLatency, rep.RefreshStalledFrac)
		}
	}

	ropts := runner.Options[*core.Report]{
		Parallelism: p.Parallelism,
		FailFast:    p.FailFast,
		OnDone:      onDone,
	}
	execute := p.CellRunner
	if execute == nil {
		execute = func(ctx context.Context, _ string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
			return runner.RunBatch(ctx, jobs, opts)
		}
	}
	batch, err := execute(p.ctx(), figID, rjobs, ropts)
	for i, j := range toRun {
		if batch.OK[i] {
			out[j.key] = batch.Results[i]
		}
	}
	if err != nil {
		return out, batch.Failed, err
	}
	if journalErr != nil {
		return out, batch.Failed, fmt.Errorf("harness: journaling %s: %w", figID, journalErr)
	}
	return out, batch.Failed, nil
}
