package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// setupProbes is how many extra times a workload starts its process
// only to time set-up; setup_s is the median over the probes and the
// measured passes.
const setupProbes = 5

// refWindow is how long each reference loop runs before and after each
// measured stretch; the stretch is normalised by the mean of the two
// host speeds.
const refWindow = 200 * time.Millisecond

// atHostSpeed runs fn between two host-speed measurements and returns
// their mean.
func atHostSpeed(fn func() error) (hostSpeed, error) {
	s0, err := measureHostSpeed(refWindow)
	if err != nil {
		return 0, err
	}
	if err := fn(); err != nil {
		return 0, err
	}
	s1, err := measureHostSpeed(refWindow)
	if err != nil {
		return 0, err
	}
	return (s0 + s1) / 2, nil
}

// probeSetup starts a workload's process setupProbes times only to time
// its set-up, and returns the times, normalised.
func probeSetup(start func() (time.Duration, error)) ([]float64, error) {
	var ds []time.Duration
	speed, err := atHostSpeed(func() error {
		for i := 0; i < setupProbes; i++ {
			d, err := start()
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setups := make([]float64, len(ds))
	for i, d := range ds {
		setups[i] = speed.time(d.Seconds())
	}
	return setups, nil
}

// childProc is what the parent observes of one child process.
type childProc struct {
	setup time.Duration // exec → ready
	rssMB float64       // peak resident set
}

// runChild runs one sweep child to completion and returns its report.
func (b *bench) runChild(ctx context.Context, spec childSpec) (*childResult, childProc, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, childProc{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, childProc{}, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, childProc{}, fmt.Errorf("%s child: %w", spec.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, childProc{}, fmt.Errorf("%s child: bad report: %w", spec.Workload, err)
	}
	proc := childProc{setup: time.Unix(0, res.ReadyUnixNano).Sub(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		proc.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, proc, nil
}

// sweepPass is one measured pass of a sweep workload.
type sweepPass struct {
	speed hostSpeed
	res   *childResult
	proc  childProc
}

// rawWall is the time the pass spent rendering its figures.
func (p sweepPass) rawWall() float64 {
	var s float64
	for _, f := range p.res.Figures {
		s += f.Seconds
	}
	return s
}

// opMS lists the pass's op latencies. A sweep's op is a figure render,
// what a user of cmd/experiments waits for. Single cells vary too much
// from run to run to gate on: contended's median cell spread 16% of its
// median across runs, its whole render 5%.
func (p sweepPass) opMS() []float64 {
	var ms []float64
	for _, f := range p.res.Figures {
		ms = append(ms, f.Seconds*1e3)
	}
	return ms
}

// measuredPass runs one pass between two host-speed measurements.
func (b *bench) measuredPass(ctx context.Context, spec childSpec) (sweepPass, error) {
	var p sweepPass
	var err error
	p.speed, err = atHostSpeed(func() error {
		var err error
		p.res, p.proc, err = b.runChild(ctx, spec)
		return err
	})
	return p, err
}

// sweep measures a sweep workload: set-up probes, then whole passes
// until b.seconds have elapsed (at least one), then a traced pass when
// tracing. End-to-end metrics are medians over the untraced passes.
func (b *bench) sweep(ctx context.Context, w workload) (*result, error) {
	r := &result{workload: w.name, values: map[string]float64{}}
	spec := childSpec{Workload: w.name, Figures: w.figures, Params: b.params, Seed: sweepSeed}

	setups, err := probeSetup(func() (time.Duration, error) {
		_, proc, err := b.runChild(ctx, childSpec{Workload: w.name, Params: b.params, Seed: sweepSeed})
		return proc.setup, err
	})
	if err != nil {
		return nil, err
	}

	var passes []sweepPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < b.seconds {
		p, err := b.measuredPass(ctx, spec)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.speed.time(p.proc.setup.Seconds()))
		r.add(b.ref.scoreSweep(p.res, sweepSeed))
	}

	per := map[string][]float64{}
	var rss float64
	for _, p := range passes {
		ops := p.opMS()
		tail := tailPercentile(len(ops))
		per["wall_s"] = append(per["wall_s"], p.speed.time(p.rawWall()))
		per["first_fig_s"] = append(per["first_fig_s"], p.speed.time(p.res.Figures[0].Seconds))
		per["cold_p50_ms"] = append(per["cold_p50_ms"], p.speed.time(percentile(ops, 50)))
		per["cold_tail_ms"] = append(per["cold_tail_ms"], p.speed.time(percentile(ops, tail)))
		per["ops_per_s"] = append(per["ops_per_s"], p.speed.rate(float64(len(ops))/p.rawWall()))
		per["alloc_gb"] = append(per["alloc_gb"], float64(p.res.TotalAlloc)/1e9)
		per["cold_samples"] = append(per["cold_samples"], float64(len(ops)))
		per["cold_tail_pct"] = append(per["cold_tail_pct"], tail)
		per["host.speed"] = append(per["host.speed"], float64(p.speed))
		per["host.raw_wall_s"] = append(per["host.raw_wall_s"], p.rawWall())
		rss = max(rss, p.proc.rssMB)
	}
	for name, vs := range per {
		r.values[name] = percentile(vs, 50)
	}
	r.values["setup_s"] = percentile(setups, 50)
	r.values["peak_rss_mb"] = rss

	if b.traceDir != "" {
		if err := b.tracedSweep(ctx, r, spec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedSweep runs one more pass with the child's CPU profile and spans
// on, and derives the per-layer metrics from it.
func (b *bench) tracedSweep(ctx context.Context, r *result, spec childSpec) error {
	spec.Profile = filepath.Join(b.traceDir, spec.Workload+".cpu.pprof")
	spec.Trace = filepath.Join(b.traceDir, spec.Workload+".trace.json")
	p, err := b.measuredPass(ctx, spec)
	if err != nil {
		return err
	}
	r.add(b.ref.scoreSweep(p.res, sweepSeed))
	samples, err := readProfile(ctx, spec.Profile)
	if err != nil {
		return err
	}
	shares, cpu := layerShares(samples)
	for k, v := range shares {
		r.values[k] = v
	}
	var events, requests, instructions, faults uint64
	var cellMS []float64
	for _, c := range p.res.Cells {
		events += c.Events
		requests += c.Requests
		instructions += c.Instructions
		faults += c.PageFaults
		cellMS = append(cellMS, c.MS)
	}
	cells := uint64(len(p.res.Cells))
	r.values["cells"] = float64(cells)
	r.values["events"] = float64(events)
	r.values["dram_requests"] = float64(requests)
	r.values["instructions"] = float64(instructions)
	r.values["page_faults"] = float64(faults)
	r.values["cell_p50_ms"] = percentile(cellMS, 50)
	r.values["cell_tail_ms"] = percentile(cellMS, tailPercentile(len(cellMS)))
	setLayerRatios(r.values, float64(cpu.Nanoseconds()), cells, events, requests, instructions)
	r.values["trace_overhead"] = p.speed.time(p.rawWall())/r.values["wall_s"] - 1
	return nil
}
