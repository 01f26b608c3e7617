package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/runner"
	"refsched/internal/timeline"
)

// childEnv carries a sweep child's spec as JSON. Its presence makes the
// refbench binary (or the test binary, through TestMain) run as a child.
const childEnv = "REFBENCH_CHILD"

// sweepParams are the result-affecting harness parameters of a sweep,
// less the seed. The benchmark uses harness.QuickParams; the smoke test
// uses the harness's golden parameters.
type sweepParams struct {
	Scale          uint64
	FootprintScale float64
	WarmupWindows  int
	MeasureWindows int
	Mixes          []string
}

func quickSweepParams() sweepParams {
	q := harness.QuickParams()
	return sweepParams{q.Scale, q.FootprintScale, q.WarmupWindows, q.MeasureWindows, q.Mixes}
}

// at returns the harness parameters at a seed, with one simulation
// worker.
func (s sweepParams) at(seed uint64) harness.Params {
	return harness.Params{
		Scale:          s.Scale,
		FootprintScale: s.FootprintScale,
		WarmupWindows:  s.WarmupWindows,
		MeasureWindows: s.MeasureWindows,
		Mixes:          s.Mixes,
		Seed:           seed,
		Parallelism:    1,
	}
}

// childSpec is what the parent asks one sweep child to do.
type childSpec struct {
	Workload string
	Figures  []string // none: start up, report ready, exit (a set-up probe)
	Params   sweepParams
	Seed     uint64
	Profile  string // write a CPU profile of the RunFigure calls here
	Trace    string // write the child's spans here as trace-event JSON
}

// childResult is what a sweep child reports on its standard output.
type childResult struct {
	// ReadyUnixNano is the wall clock just before the first RunFigure
	// call: the end of the child's set-up.
	ReadyUnixNano int64
	Figures       []figureRun
	Cells         []cellRun
	// TotalAlloc is the bytes the RunFigure calls allocated
	// (runtime.MemStats.TotalAlloc across them).
	TotalAlloc uint64
}

// figureRun is one RunFigure call.
type figureRun struct {
	Name    string
	Seconds float64
	// SHA is the sha256 of the figure as cmd/experiments prints it and
	// refschedd serves it.
	SHA         string
	Quarantined int    // cells the sweep quarantined
	Err         string // the sweep's error, if it did not complete
}

// cellRun is one simulation cell that completed inside a RunFigure
// call, as seen at the harness's CellRunner seam.
type cellRun struct {
	Key          string
	MS           float64
	SHA          string // sha256 of the report as refschedd stores a cell job's result
	Events       uint64
	Requests     uint64 // DRAM reads + writes
	Instructions uint64
	PageFaults   uint64
}

// Span tracks of a sweep child's trace: one process, one thread per
// level of the workload → figure → cell hierarchy.
const (
	tidWorkload = 0
	tidFigure   = 1
	tidCell     = 2
)

// childMain runs a sweep child and reports its childResult as the last
// line of its standard output.
func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "refbench child: bad spec: %v\n", err)
		return 1
	}
	res, err := runChild(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "refbench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "refbench child: %v\n", err)
		return 1
	}
	return 0
}

// finishedCell is a cell report held until the figure's timing ends,
// so hashing stays out of the measured interval.
type finishedCell struct {
	key string
	ms  float64
	rep *core.Report
}

func runChild(spec childSpec) (*childResult, error) {
	start := time.Now()
	p := spec.Params.at(spec.Seed)
	var rec *timeline.Recorder
	if spec.Trace != "" {
		rec = timeline.NewRecorder(nil, 0)
		rec.SetProcessName(1, "refbench "+spec.Workload)
		rec.SetThreadName(1, tidWorkload, "workload")
		rec.SetThreadName(1, tidFigure, "figures")
		rec.SetThreadName(1, tidCell, "cells")
	}
	sinceUS := func(t time.Time) uint64 { return uint64(t.Sub(start).Microseconds()) }

	var mu sync.Mutex
	var finished []finishedCell
	p.CellRunner = func(ctx context.Context, figID string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		for i := range jobs {
			run, cell := jobs[i].Run, jobs[i].Cell
			jobs[i].Run = func() (*core.Report, error) {
				t0 := time.Now()
				rep, err := run()
				d := time.Since(t0)
				if rec != nil {
					rec.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: sinceUS(t0), Dur: uint64(d.Microseconds()),
						Pid: 1, Tid: tidCell, Name: cell.String(), Arg1Name: "seed", Arg1: int64(cell.Seed),
						StrName: "figure", Str: figID})
				}
				if err == nil {
					mu.Lock()
					finished = append(finished, finishedCell{cellKey(figID, cell), float64(d.Nanoseconds()) / 1e6, rep})
					mu.Unlock()
				}
				return rep, err
			}
		}
		return runner.RunBatch(ctx, jobs, opts)
	}

	stopProfile := func() error { return nil }
	if spec.Profile != "" && len(spec.Figures) > 0 {
		f, err := os.Create(spec.Profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := &childResult{ReadyUnixNano: time.Now().UnixNano()}
	wStart := time.Now()
	for _, name := range spec.Figures {
		t0 := time.Now()
		rs, err := harness.RunFigure(name, p)
		d := time.Since(t0)
		fr := figureRun{Name: name, Seconds: d.Seconds()}
		if err != nil {
			fr.Err = err.Error()
		}
		var b strings.Builder
		for _, r := range rs {
			fr.Quarantined += len(r.Failed)
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		fr.SHA = digest([]byte(b.String()))
		res.Figures = append(res.Figures, fr)
		if rec != nil {
			rec.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: sinceUS(t0), Dur: uint64(d.Microseconds()),
				Pid: 1, Tid: tidFigure, Name: name, Arg1Name: "quarantined", Arg1: int64(fr.Quarantined)})
		}
	}
	if rec != nil && len(spec.Figures) > 0 {
		rec.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: sinceUS(wStart), Dur: uint64(time.Since(wStart).Microseconds()),
			Pid: 1, Tid: tidWorkload, Name: spec.Workload, Arg1Name: "seed", Arg1: int64(spec.Seed)})
	}
	runtime.ReadMemStats(&m1)
	res.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	if err := stopProfile(); err != nil {
		return nil, fmt.Errorf("writing %s: %w", spec.Profile, err)
	}

	for _, fc := range finished {
		body, err := reportBytes(fc.rep)
		if err != nil {
			return nil, err
		}
		c := cellRun{Key: fc.key, MS: fc.ms, SHA: digest(body), Events: fc.rep.Events,
			Requests: fc.rep.Reads + fc.rep.Writes}
		for _, t := range fc.rep.Tasks {
			c.Instructions += t.Instructions
			c.PageFaults += t.PageFaults
		}
		res.Cells = append(res.Cells, c)
	}
	if rec != nil {
		if err := writeTrace(spec.Trace, rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeTrace writes a recorder's spans as Perfetto-loadable trace-event
// JSON.
func writeTrace(path string, rec *timeline.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rec.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
