// Package runner executes the independent cells of an experiment sweep
// across a bounded worker pool while preserving the exact results and
// rendered output of a serial run.
//
// Every figure in the paper's evaluation is a grid of fully independent,
// deterministically-seeded simulation cells (mix × density × policy
// bundle). The harness enumerates a sweep's cells up front, hands them
// to RunBatch, and receives results in an index-addressed slice — so tables
// built from the results are byte-identical to serial output regardless
// of worker completion order. Progress callbacks are routed through a
// single collector goroutine so verbose output never interleaves.
//
// The pool has the failure semantics of a real job scheduler. A failing
// or panicking cell is captured as a typed *CellError (cell identity,
// seed, original panic value, goroutine stack) and quarantined so the
// rest of the batch still completes. A cell is
// never retried: it is deterministic, so a cell that fails once fails
// again. Cancelling the batch context lets in-flight cells finish and
// skips the rest, so completed work is preserved: the harness keeps
// every finished cell in its result memo, from which a rerun answers
// it.
// The pool's only concurrency bound is its worker count; a scheduler
// sharing a budget across concurrent batches wraps each Job's Run, as
// the serving daemon's priority gate does.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell identifies one independent simulation cell of a sweep grid: the
// workload mix, device density, and policy bundle it simulates, plus
// the seed that makes it reproducible in isolation. It is metadata for
// progress lines and failure reports; fields that do not apply to a
// given sweep may be left empty.
type Cell struct {
	Mix     string
	Density string
	Bundle  string
	Seed    uint64

	// Hot records the high-temperature (2x refresh rate) variant of the
	// bundle, so a cell's full simulation input is addressable from the
	// Cell alone.
	Hot bool
}

// String renders the cell compactly for progress and error text:
// mix/density/bundle, with a /hot suffix naming the high-temperature
// regime when Hot is set.
func (c Cell) String() string {
	s := fmt.Sprintf("%s/%s/%s", c.Mix, c.Density, c.Bundle)
	if c.Hot {
		s += "/hot"
	}
	return s
}

// Job couples a cell's identity with the closure that simulates it.
// Run must be self-contained: it may not share mutable state with any
// other job in the same batch, and it must be deterministic.
type Job[T any] struct {
	Cell Cell
	Run  func() (T, error)
}

// CellError is the quarantine record for one failed cell: which cell it
// was and how it failed. A panicking cell preserves the original panic
// value and the goroutine stack captured at recovery time, so nothing
// is flattened into an opaque string.
type CellError struct {
	Index int  // position of the job in the batch
	Cell  Cell // identity, including the seed for standalone repro

	// Err is the error the cell returned, or nil when it panicked
	// instead.
	Err error
	// PanicValue is the recovered panic value (nil unless the cell
	// panicked); Stack is the goroutine stack captured at that point.
	PanicValue any
	Stack      []byte
}

// Error implements error. The full stack is not inlined (it can run to
// kilobytes); it stays available via the Stack field.
func (e *CellError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("cell %d (%s, seed %d) panicked: %v",
			e.Index, e.Cell, e.Cell.Seed, e.PanicValue)
	}
	return fmt.Sprintf("cell %d (%s, seed %d) failed: %v",
		e.Index, e.Cell, e.Cell.Seed, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As chains. A panic
// with an error value unwraps to that error.
func (e *CellError) Unwrap() error {
	if e.Err != nil {
		return e.Err
	}
	if err, ok := e.PanicValue.(error); ok {
		return err
	}
	return nil
}

// Cause names how the cell failed, as failure tables and the daemon's
// job status print it: kind "panic" with the panic value, or "error"
// with the error's text ("" when there is none).
func (e *CellError) Cause() (kind, detail string) {
	switch {
	case e.PanicValue != nil:
		return "panic", fmt.Sprint(e.PanicValue)
	case e.Err != nil:
		return "error", e.Err.Error()
	}
	return "error", ""
}

// Options configures a batch run. The zero value means: GOMAXPROCS
// workers, no progress callback.
type Options[T any] struct {
	// Parallelism bounds the worker pool; <= 0 selects GOMAXPROCS.
	Parallelism int
	// OnDone, if non-nil, is invoked once per successful cell from a
	// single collector goroutine — in completion order, never
	// concurrently — for progress reporting. The first argument is the
	// job's batch index.
	OnDone func(int, Cell, T)
}

// Batch is the outcome of RunBatch: index-addressed results and the
// quarantined failures.
type Batch[T any] struct {
	// Results holds each job's value at its submission index; entries
	// for failed or skipped cells are the zero value (check OK).
	Results []T
	// OK[i] reports whether job i produced a result.
	OK []bool
	// Failed lists quarantined cells in batch-index order.
	Failed []*CellError
	// Skipped counts jobs never started because the batch was cancelled.
	Skipped int
}

// Err returns nil when every cell succeeded, or an error summarizing
// the quarantined failures (the lowest-indexed CellError, which is what
// a serial in-order run would have reported first).
func (b *Batch[T]) Err() error {
	if len(b.Failed) == 0 {
		return nil
	}
	if len(b.Failed) == 1 {
		return b.Failed[0]
	}
	return fmt.Errorf("%d cells failed, first: %w", len(b.Failed), b.Failed[0])
}

// Parallelism normalizes a -j style setting: values <= 0 select
// runtime.GOMAXPROCS(0).
func Parallelism(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// RunBatch executes jobs across a bounded worker pool, quarantining
// every cell that fails or panics. It returns a non-nil *Batch even on
// error, so completed results remain usable (e.g. for printing a
// partial run).
//
// The returned error is non-nil only when the batch did not run to
// completion: ctx was cancelled, and the context error is returned
// after in-flight cells finish. Quarantined failures are reported via
// Batch.Failed / Batch.Err, not the error.
//
// Determinism: each job runs exactly once with no shared state, so
// results are independent of parallelism and completion order.
func RunBatch[T any](ctx context.Context, jobs []Job[T], opts Options[T]) (*Batch[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	b := &Batch[T]{Results: make([]T, n), OK: make([]bool, n)}
	if n == 0 {
		return b, nil
	}
	workers := Parallelism(opts.Parallelism)
	if workers > n {
		workers = n
	}

	cellErrs := make([]*CellError, n)
	var next atomic.Int64
	next.Store(-1)

	// Collector goroutine: serializes OnDone callbacks. The buffer holds
	// every possible completion so workers never block on it.
	var doneCh chan int
	var collectorDone chan struct{}
	if opts.OnDone != nil {
		doneCh = make(chan int, n)
		collectorDone = make(chan struct{})
		go func() {
			defer close(collectorDone)
			for i := range doneCh {
				opts.OnDone(i, jobs[i].Cell, b.Results[i])
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if ce := runCell(jobs, b.Results, i); ce != nil {
					cellErrs[i] = ce
					continue
				}
				b.OK[i] = true
				if doneCh != nil {
					doneCh <- i
				}
			}
		}()
	}
	wg.Wait()
	if doneCh != nil {
		close(doneCh)
		<-collectorDone
	}

	for i, ce := range cellErrs {
		if ce != nil {
			ce.Index = i
			b.Failed = append(b.Failed, ce)
		}
	}
	for _, ok := range b.OK {
		if !ok {
			b.Skipped++
		}
	}
	b.Skipped -= len(b.Failed)

	if err := ctx.Err(); err != nil {
		return b, fmt.Errorf("runner: batch cancelled after %d/%d cells: %w",
			n-b.Skipped-len(b.Failed), n, err)
	}
	return b, nil
}

// runCell executes jobs[i], converting a panic into a captured (value,
// stack) pair instead of crashing the worker; it returns the quarantine
// record, or nil on success.
func runCell[T any](jobs []Job[T], results []T, i int) (ce *CellError) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 64<<10)
			ce = &CellError{Cell: jobs[i].Cell, PanicValue: p, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	v, err := jobs[i].Run()
	if err != nil {
		return &CellError{Cell: jobs[i].Cell, Err: err}
	}
	results[i] = v
	return nil
}
