package harness

import (
	"context"
	"fmt"

	"refsched/internal/chaos"
	"refsched/internal/core"
	"refsched/internal/runner"
)

// Fingerprint identifies the parameter set a cell's result is valid
// for: every knob that changes a cell's simulated result, and so
// exactly the knobs a CellSpec carries, whose Key ends with it. Mix
// selection is deliberately absent — it changes which cells exist, not
// what any cell computes, and cells are already keyed individually. The
// Store is likewise absent: checkpoint boundaries only split the
// engine's run into legs and a resumed cell is byte-identical to an
// uninterrupted one. (Callers keying whole rendered figures — the
// serving daemon's result cache — must additionally key on the mix
// selection, since it changes which rows a figure renders.)
func (p Params) Fingerprint() string {
	// v2: Report JSON moved to stable snake_case field names, so v1
	// records (PascalCase keys) must not be answered from.
	// v3: Report gained sched_skips_per_pick; v2 records would answer
	// with the histogram silently empty.
	// v4: the Mode knob landed; an approx cell must never answer an
	// exact one (or vice versa), so the tier is part of the
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
// and returns the reports keyed by cell, plus the quarantined failures.
// A figure looks a report up with the same p.cell call it enumerated
// the cell with.
//
// This is the pipeline's fault boundary. A cell that fails or panics is
// captured as a typed *runner.CellError and quarantined, and the rest
// of the sweep completes. Every cell
// is answered through the store (see runCell), so a cell on record in a
// logged store is decoded instead of re-run — JSON round-trips float64
// exactly, so a resumed sweep renders byte-identical tables.
// Cells share no mutable state and results are collected by submission
// index, so the returned map is identical to a serial in-order run;
// Verbose lines go through the runner's single collector goroutine and
// never interleave.
//
// The error is non-nil only when the sweep did not run to completion:
// it was cancelled.
func (p Params) runCells(figID string, cells []runner.Cell) (map[runner.Cell]*core.Report, []*runner.CellError, error) {
	jobs := make([]runner.Job[*core.Report], len(cells))
	for i, c := range cells {
		run := func() (*core.Report, error) { return p.runCell(c) }
		if p.Chaos != nil {
			// HardCtx (deadline/watchdog cancellation) interrupts chaos
			// stalls, so a killed job terminates within its bound
			// instead of waiting out every injected sleep.
			run = chaos.WrapContext(p.Chaos, figID+"|"+p.Spec(c).Key(), p.HardCtx, run)
		}
		jobs[i] = runner.Job[*core.Report]{Cell: c, Run: run}
	}

	ropts := runner.Options[*core.Report]{Parallelism: p.Parallelism}
	if p.Verbose {
		ropts.OnDone = func(_ int, c runner.Cell, rep *core.Report) {
			bundle := c.Bundle
			if c.Hot {
				bundle += "/hot"
			}
			fmt.Printf("  ran %-6s %-5s %-10s hIPC=%.4f lat=%.0f stalled=%.4f\n",
				c.Mix, c.Density, bundle, rep.HarmonicIPC, rep.AvgMemLatency, rep.RefreshStalledFrac)
		}
	}
	execute := p.CellRunner
	if execute == nil {
		execute = func(ctx context.Context, _ string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
			return runner.RunBatch(ctx, jobs, opts)
		}
	}
	batch, err := execute(p.ctx(), figID, jobs, ropts)
	out := make(map[runner.Cell]*core.Report, len(cells))
	for i, c := range cells {
		if batch.OK[i] {
			out[c] = batch.Results[i]
		}
	}
	return out, batch.Failed, err
}
