// Package harness drives the paper's experiments: for every table and
// figure in the evaluation it builds the right systems, runs them, and
// prints the same rows/series the paper reports. One table (figures.go)
// lists every target with its aliases and its driver; RunFigure runs a
// target and Render prints its results. cmd/experiments, the serving
// daemon and bench_test.go's figure benchmarks run figures through
// them.
package harness

import (
	"context"
	"fmt"
	"strings"

	"refsched/internal/approx"
	"refsched/internal/chaos"
	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
	"refsched/internal/stats"
	"refsched/internal/workload"
)

// Params controls experiment fidelity versus runtime.
type Params struct {
	// Scale is the time-scale factor (see config): 1 is the paper's
	// wall clock; 64 keeps duty cycles and alignment exact at ~1/64 of
	// the events.
	Scale uint64
	// FootprintScale multiplies task footprints (1.0 = paper sizes;
	// resident memory is demand-paged so full sizes are cheap).
	FootprintScale float64
	// WarmupWindows / MeasureWindows are run durations in retention
	// windows.
	WarmupWindows  int
	MeasureWindows int
	// Mixes restricts which Table 2 mixes run. Nil means all ten for
	// the per-mix figures (10-14) and a representative 5-mix subset
	// covering the H/M/L spectrum for the heavily swept, averaged-only
	// figures (3, 4, 15).
	Mixes []string
	// Seed drives all random streams.
	Seed uint64
	// Mode selects the simulation tier every cell runs on. "" and
	// ModeExact run the full event-driven engine; ModeApprox answers
	// from the internal/approx analytical model (microseconds per cell,
	// no event loop) — covered bundles only, and exact only at the
	// model's calibration anchors; see that package for error bounds.
	// Bank-confined cells (fig4's confineK bundles) always run exact:
	// the model has no bank masks.
	Mode string
	// Verbose prints each run's one-line summary as it completes.
	Verbose bool
	// Parallelism bounds the worker pool that runs a sweep's
	// independent simulation cells (0 = runtime.GOMAXPROCS). Every cell
	// is deterministically seeded and results are collected in
	// submission order, so rendered tables are identical at any
	// setting; only wall-clock time changes.
	Parallelism int

	// Ctx cancels a sweep (nil = context.Background). Cancellation is
	// graceful: in-flight cells finish (and are stored), unstarted
	// cells are skipped, and the sweep returns the context error.
	Ctx context.Context
	// HardCtx, when non-nil, aborts in-flight cells mid-run: the exact
	// run loop polls it at leg boundaries (and chaos stalls
	// select on it), so cancellation or deadline expiry fails the cell
	// with a typed error wrapping the context error instead of letting
	// it run to completion. Contrast Ctx, whose cancellation is
	// graceful. The serving daemon sets it per job to enforce request
	// deadlines and watchdog kills.
	HardCtx context.Context
	// Chaos, when non-nil, deterministically injects faults into a
	// fraction of cells (tests and failure drills only).
	Chaos *chaos.Injector
	// Store holds the run's state (see CellStore). Nil means the
	// process-wide store, whose memo lets a figure reuse the cells an
	// earlier figure in the same process simulated. A store on a memo
	// opened on a file (OpenMemo) is how an interrupted run is
	// finished. It is absent from Fingerprint, because a resumed cell's
	// report is byte-identical to an uninterrupted one.
	Store *CellStore

	// CellRunner, when non-nil, replaces the direct runner.RunBatch
	// call that executes the cells a sweep's memo cannot answer. It is
	// the hook the serving daemon uses to wrap every figure driver
	// without forking them: counting executions, wrapping each job's
	// Run in a global priority gate across concurrent jobs, and
	// streaming per-cell progress by decorating opts.OnDone.
	// Implementations must preserve RunBatch's contract (index-addressed
	// results; OnDone, which records each report in the memo, called
	// from one goroutine) — delegating to runner.RunBatch after wrapping
	// the jobs and adjusting opts is the intended shape.
	CellRunner CellRunner
}

// CellRunner executes the enumerated cells of one figure sweep; figID
// names the sweep for keying and display. See Params.CellRunner.
type CellRunner func(ctx context.Context, figID string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error)

// Simulation tiers for Params.Mode.
const (
	// ModeExact runs the full event-driven engine (the default).
	ModeExact = "exact"
	// ModeApprox answers each cell from the analytical model.
	ModeApprox = "approx"
)

// mode normalizes the Mode knob ("" means exact).
func (p Params) mode() string {
	if p.Mode == "" {
		return ModeExact
	}
	return p.Mode
}

// CheckMode rejects a Params.Mode that names no simulation tier ("" is
// exact). Every sweep and cell checks it; the CLIs and the daemon call
// it too, to refuse a bad mode before anything runs.
func CheckMode(mode string) error {
	switch mode {
	case "", ModeExact, ModeApprox:
		return nil
	}
	return fmt.Errorf("harness: unknown mode %q (want %q or %q)", mode, ModeExact, ModeApprox)
}

// DefaultParams is the full-fidelity configuration used for
// EXPERIMENTS.md numbers.
func DefaultParams() Params {
	return Params{Scale: 64, FootprintScale: 1, WarmupWindows: 1, MeasureWindows: 2, Seed: 1}
}

// QuickParams trades fidelity for speed (CI and benchmarks).
func QuickParams() Params {
	return Params{
		Scale: 256, FootprintScale: 0.05, WarmupWindows: 1, MeasureWindows: 1,
		Mixes: []string{"WL-1", "WL-5", "WL-6", "WL-8"}, Seed: 1,
	}
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Table stats.Table
	Notes []string
	// Failed lists the sweep's quarantined cells (empty on a clean
	// run, so clean output is unchanged). Rows needing a failed cell
	// are omitted from Table and accounted for here instead.
	Failed []*runner.CellError
}

// String renders the result, followed by the failure-summary table when
// any cells were quarantined.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Failed) > 0 {
		fmt.Fprintf(&b, "-- %d cell(s) failed and were quarantined --\n", len(r.Failed))
		var ft stats.Table
		ft.Header = []string{"cell", "seed", "kind", "error"}
		for _, f := range r.Failed {
			kind, detail := f.Cause()
			ft.AddRow(f.Cell.String(), fmt.Sprint(f.Cell.Seed), kind, detail)
		}
		b.WriteString(ft.String())
	}
	return b.String()
}

// mixes resolves the mix selection.
func (p Params) mixes() []workload.Mix { return selectMixes(p.Mixes) }

// sweepMixes resolves the subset used by the averaged sweep figures.
func (p Params) sweepMixes() []workload.Mix {
	if len(p.Mixes) > 0 {
		return selectMixes(p.Mixes)
	}
	// One representative per intensity class plus the two headline
	// H+L mixes — enough to reproduce the averages the paper plots.
	return selectMixes([]string{"WL-1", "WL-3", "WL-5", "WL-6", "WL-8"})
}

func selectMixes(names []string) []workload.Mix {
	all := workload.Table2()
	if len(names) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, m := range names {
		want[m] = true
	}
	var out []workload.Mix
	for _, m := range all {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// bundle names one machine-and-policy combination a figure prints: the
// refresh policy, the OS side, and any departure from the default
// machine. Every cell a figure runs is a (mix, density, bundle, hot)
// coordinate, so the bundle table (figures.go) addresses each by name.
type bundle struct {
	name    string
	refresh config.RefreshPolicy
	code    bool // enable the full co-design OS side
	// subarrays, when non-zero, sets the subarrays per bank (ext1's
	// subarray-level refresh).
	subarrays int
	// confine, when non-zero, confines every task to that many banks
	// per rank (fig4); such bundles run with refresh off.
	confine int
	// machine, when non-nil, is a fig15 sensitivity machine.
	machine *scenario
}

var (
	bundleNone     = bundle{name: "norefresh", refresh: config.RefreshNone}
	bundleAllBank  = bundle{name: "allbank", refresh: config.RefreshAllBank}
	bundlePerBank  = bundle{name: "perbank", refresh: config.RefreshPerBankRR}
	bundleOOO      = bundle{name: "oooperbank", refresh: config.RefreshOOOPerBank}
	bundleFGR2x    = bundle{name: "fgr2x", refresh: config.RefreshFGR2x}
	bundleFGR4x    = bundle{name: "fgr4x", refresh: config.RefreshFGR4x}
	bundleAdaptive = bundle{name: "adaptive", refresh: config.RefreshAdaptive}
	bundleCoDesign = bundle{name: "codesign", refresh: config.RefreshPerBankSeq, code: true}

	// ext1's related-work comparators and subarray-level refresh.
	bundleElastic = bundle{name: "elastic", refresh: config.RefreshElastic}
	bundlePausing = bundle{name: "pausing", refresh: config.RefreshPausing}
	bundleRAIDR   = bundle{name: "raidr", refresh: config.RefreshRAIDR}
	bundleSALP8   = bundle{name: "perbank-salp8", refresh: config.RefreshPerBankSA, subarrays: 8}
)

// confined is fig4's bundle confining each task to k banks per rank.
func confined(k int) bundle {
	return bundle{name: fmt.Sprintf("confine%d", k), refresh: config.RefreshNone, confine: k}
}

// on is b run on fig15's machine sc.
func (b bundle) on(sc *scenario) bundle {
	b.name += "@" + sc.name
	b.machine = sc
	return b
}

// configFor builds the machine config for a bundle.
func (p Params) configFor(d config.Density, b bundle, highTemp bool) config.System {
	cfg := config.Default(d, p.Scale)
	if highTemp {
		cfg = config.HighTemp(cfg)
	}
	cfg.Refresh.Policy = b.refresh
	if b.code {
		cfg.OS.Alloc = config.AllocSoftPartition
		cfg.OS.Scheduler = config.SchedCFS
		cfg.OS.RefreshAware = true
	}
	if b.subarrays != 0 {
		cfg.Mem.SubarraysPerBank = b.subarrays
	}
	if sc := b.machine; sc != nil {
		cfg.Cores = sc.cores
		cfg.Mem.DIMMsPerChannel = sc.dimms
		cfg.OS.BanksPerTask = sc.banksPerTask
	}
	cfg.Seed = p.Seed
	return cfg
}

// runCell computes one sweep cell the memo could not answer: on the
// approx tier it is predicted, otherwise it runs exact under p's store
// (see runExact). Bank-confined cells always run exact, and an exact
// cell whose HardCtx has ended fails at once. A machine bundle tiles
// the mix to the machine's task count.
func (p Params) runCell(c runner.Cell) (*core.Report, error) {
	mix, d, b, err := p.resolveCell(c.Mix, c.Density, c.Bundle)
	if err != nil {
		return nil, err
	}
	cfg := p.configFor(d, b, c.Hot)
	if sc := b.machine; sc != nil {
		mix = workload.MixFor(mix, sc.cores, sc.ratio)
	}
	if p.Mode == ModeApprox && b.confine == 0 {
		rep, err := approx.Predict(cfg, mix)
		if err != nil {
			return nil, cellError(mix, cfg, err)
		}
		return rep, nil
	}
	if p.HardCtx != nil && p.HardCtx.Err() != nil {
		return nil, cellError(mix, cfg, p.HardCtx.Err())
	}
	return p.runExact(p.store(), cfg, mix, b.confine, p.Spec(c).Key())
}

// store returns the run's CellStore: p.Store, or the process-wide one.
func (p Params) store() *CellStore {
	if p.Store != nil {
		return p.Store
	}
	return &processStore
}

// cellError names the cell err came from by mix, density and refresh
// policy.
func cellError(mix workload.Mix, cfg config.System, err error) error {
	return fmt.Errorf("%s/%s/%s: %w", mix.Name, cfg.Mem.Density, cfg.Refresh.Policy, err)
}

// gain is rep's IPC gain over base's: the ratio of their harmonic-mean
// IPCs less one, or 0 when base retired nothing.
func gain(rep, base *core.Report) float64 {
	if base.HarmonicIPC > 0 {
		return rep.HarmonicIPC/base.HarmonicIPC - 1
	}
	return 0
}

// pct formats a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// meanPct formats the mean of vs as a percentage with prec decimals.
// A mean over no cells (every one quarantined) renders as "-", since no
// cell produced a number.
func meanPct(vs []float64, prec int) string {
	if len(vs) == 0 {
		return "-"
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return fmt.Sprintf("%.*f%%", prec, s/float64(len(vs))*100)
}
