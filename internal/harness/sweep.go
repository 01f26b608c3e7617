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

// runCells answers a sweep's cells and returns the reports keyed by
// cell, plus the quarantined failures. A figure looks a report up with
// the same p.cell call it enumerated the cell with.
//
// The memo of p's store is asked once per cell; only the cells it
// cannot answer become jobs for the CellRunner, and each report a job
// returns (computed, resumed or a peer's) is recorded as its cell
// completes. A cell chaos faults, and every cell of a sweep whose
// HardCtx has ended, skip the memo, so that what fails does not depend
// on what it holds.
//
// This is the pipeline's fault boundary: a cell that fails or panics
// is quarantined as a typed *runner.CellError, and the rest of the
// sweep completes. Results are collected by submission index, so the
// map is identical to a serial in-order run. The error is non-nil only
// when the sweep was cancelled.
func (p Params) runCells(figID string, cells []runner.Cell) (map[runner.Cell]*core.Report, []*runner.CellError, error) {
	memo := p.store().memo()
	ask := p.HardCtx == nil || p.HardCtx.Err() == nil
	verbose := func(c runner.Cell, rep *core.Report) {
		if !p.Verbose {
			return
		}
		bundle := c.Bundle
		if c.Hot {
			bundle += "/hot"
		}
		fmt.Printf("  ran %-6s %-5s %-10s hIPC=%.4f lat=%.0f stalled=%.4f\n",
			c.Mix, c.Density, bundle, rep.HarmonicIPC, rep.AvgMemLatency, rep.RefreshStalledFrac)
	}

	out := make(map[runner.Cell]*core.Report, len(cells))
	var jobs []runner.Job[*core.Report]
	for _, c := range cells {
		key := p.Spec(c).Key()
		chaosKey := figID + "|" + key
		_, faulted := p.Chaos.Faulted(chaosKey)
		if ask && !faulted {
			if rep := memo.report(key); rep != nil {
				out[c] = rep
				verbose(c, rep)
				continue
			}
		}
		run := func() (*core.Report, error) { return p.runCell(c) }
		if faulted {
			// HardCtx (deadline/watchdog cancellation) interrupts chaos
			// stalls, so a killed job terminates within its bound
			// instead of waiting out every injected sleep.
			run = chaos.WrapContext(p.Chaos, chaosKey, p.HardCtx, run)
		}
		jobs = append(jobs, runner.Job[*core.Report]{Cell: c, Run: run})
	}
	if len(jobs) == 0 {
		return out, nil, p.ctx().Err()
	}

	ropts := runner.Options[*core.Report]{Parallelism: p.Parallelism,
		OnDone: func(_ int, c runner.Cell, rep *core.Report) {
			memo.Put(p.Spec(c).Key(), ReportBody(rep))
			verbose(c, rep)
		}}
	execute := p.CellRunner
	if execute == nil {
		execute = func(ctx context.Context, _ string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
			return runner.RunBatch(ctx, jobs, opts)
		}
	}
	batch, err := execute(p.ctx(), figID, jobs, ropts)
	for i, j := range jobs {
		if batch.OK[i] {
			out[j.Cell] = batch.Results[i]
		}
	}
	return out, batch.Failed, err
}
