// Package refsched is a full-system simulation library reproducing
// "Hardware-Software Co-design to Mitigate DRAM Refresh Overheads: A
// Case for Refresh-Aware Process Scheduling" (Kotra et al., ASPLOS
// 2017).
//
// It models out-of-order cores with private two-level caches, a DDR3/
// DDR4 memory system with FR-FCFS controllers and pluggable refresh
// policies (all-bank, LPDDR3 per-bank, DDR4 FGR 1x/2x/4x, Adaptive
// Refresh, out-of-order per-bank, and the paper's sequential per-bank
// schedule), and a simulated OS with a bank-aware buddy allocator and a
// CFS scheduler implementing refresh-aware pick_next_task.
//
// Quick start:
//
//	cfg := refsched.CoDesign(refsched.DefaultConfig(refsched.Density32Gb, 64))
//	sys, err := refsched.NewSystem(cfg, refsched.Table2()[0])
//	if err != nil { ... }
//	rep, err := sys.RunWindows(2, 2)
//	fmt.Println(rep)
//
// The second argument to DefaultConfig is the time-scale factor: 1
// reproduces the paper's wall-clock constants (64 ms retention windows —
// slow); 32–128 keeps the refresh duty cycle and the quantum/slot
// alignment exact while shrinking runs to laptop scale.
package refsched

import (
	"io"

	"refsched/internal/approx"
	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/metrics"
	"refsched/internal/sim"
	"refsched/internal/timeline"
	"refsched/internal/trace"
	"refsched/internal/workload"
)

// Config is the full simulated machine description (Table 1 of the
// paper plus policy selections).
type Config = config.System

// Density is a DRAM device density.
type Density = config.Density

// RefreshPolicy selects the hardware refresh scheduling scheme.
type RefreshPolicy = config.RefreshPolicy

// AllocPolicy selects the OS page-allocation policy.
type AllocPolicy = config.AllocPolicy

// SchedPolicy selects the OS task scheduler.
type SchedPolicy = config.SchedPolicy

// Device densities evaluated in the paper.
const (
	Density8Gb  = config.Density8Gb
	Density16Gb = config.Density16Gb
	Density24Gb = config.Density24Gb
	Density32Gb = config.Density32Gb
)

// Refresh policies.
const (
	RefreshNone       = config.RefreshNone
	RefreshAllBank    = config.RefreshAllBank
	RefreshPerBankRR  = config.RefreshPerBankRR
	RefreshPerBankSeq = config.RefreshPerBankSeq
	RefreshOOOPerBank = config.RefreshOOOPerBank
	RefreshFGR2x      = config.RefreshFGR2x
	RefreshFGR4x      = config.RefreshFGR4x
	RefreshAdaptive   = config.RefreshAdaptive
	RefreshElastic    = config.RefreshElastic
	RefreshPausing    = config.RefreshPausing
	RefreshRAIDR      = config.RefreshRAIDR
	RefreshPerBankSA  = config.RefreshPerBankSA
)

// Allocation policies.
const (
	AllocBuddy         = config.AllocBuddy
	AllocSoftPartition = config.AllocSoftPartition
	AllocHardPartition = config.AllocHardPartition
)

// Scheduling policies.
const (
	SchedRR  = config.SchedRR
	SchedCFS = config.SchedCFS
)

// Mix is a multi-programmed workload.
type Mix = workload.Mix

// MixEntry is one benchmark repeated within a mix.
type MixEntry = workload.MixEntry

// Benchmark is one synthetic application model.
type Benchmark = workload.Benchmark

// Report summarizes a measured run.
type Report = core.Report

// TaskReport summarizes one task within a run.
type TaskReport = core.TaskReport

// MetricsSnapshot is a point-in-time reading of every registered
// counter, gauge, and histogram in a system, keyed by hierarchical name
// (e.g. "mc[0].bank[3].refresh_busy_cycles"). It JSON-round-trips and
// supports Diff for interval measurement.
type MetricsSnapshot = metrics.Snapshot

// Options tunes system construction.
type Options = core.Options

// DefaultConfig returns the paper's Table 1 machine at the given
// density and time scale, with the baseline policy bundle (all-bank
// refresh, bank-oblivious buddy allocation, round-robin scheduling).
func DefaultConfig(d Density, scale uint64) Config {
	return config.Default(d, scale)
}

// HighTemp adapts a config for >85°C operation: 32 ms retention window
// and 2 ms time slice.
func HighTemp(cfg Config) Config { return config.HighTemp(cfg) }

// CoDesign enables the paper's full co-design on cfg: the sequential
// per-bank refresh schedule in hardware, soft-partitioned allocation,
// and refresh-aware CFS scheduling in the OS.
func CoDesign(cfg Config) Config {
	cfg.Refresh.Policy = config.RefreshPerBankSeq
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	return cfg
}

// WithRefresh returns cfg with the given hardware refresh policy and
// baseline (refresh-oblivious) OS policies.
func WithRefresh(cfg Config, p config.RefreshPolicy) Config {
	cfg.Refresh.Policy = p
	return cfg
}

// Table2 returns the paper's ten workload mixes.
func Table2() []Mix { return workload.Table2() }

// GetBenchmark looks up a modeled benchmark by name (e.g. "mcf").
func GetBenchmark(name string) (Benchmark, error) { return workload.Get(name) }

// Benchmarks lists all modeled benchmark names.
func Benchmarks() []string { return workload.Names() }

// Access is one memory reference in a task's stream.
type Access = workload.Access

// Generator produces an endless (compute-instructions, access) stream;
// implement it to model custom applications.
type Generator = workload.Generator

// RegisterBenchmark adds a user-defined benchmark model so it can be
// referenced from mixes by name.
func RegisterBenchmark(b Benchmark) error { return workload.Register(b) }

// Rand is the deterministic random stream handed to benchmark
// generator constructors.
type Rand = sim.Rand

// TraceRecord is one captured memory request.
type TraceRecord = trace.Record

// TraceRecorder streams captured requests to a writer.
type TraceRecorder = trace.Recorder

// ReadTrace loads a recorded request stream.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.ReadAll(r) }

// ReplayGenerator turns a recorded request stream into a workload
// generator (register it with RegisterBenchmark to use it in a Mix).
func ReplayGenerator(recs []TraceRecord) Generator { return trace.NewGen(recs) }

// TimelineRecorder accumulates Perfetto-loadable span/instant events
// (Chrome trace-event JSON). See System.AttachTimeline.
type TimelineRecorder = timeline.Recorder

// TimelineEvent is one event read back from a serialised timeline.
type TimelineEvent = timeline.DecodedEvent

// ReadTimeline parses and validates a Chrome trace-event JSON
// timeline as written by a TimelineRecorder.
func ReadTimeline(r io.Reader) ([]TimelineEvent, error) { return timeline.Decode(r) }

// SystemState is the complete serializable state of a running System at
// a checkpoint boundary: machine identity (config, mix, footprint
// scale), the run's interval parameters, and every layer's mutable
// state down to pending engine events and random streams. A system
// restored from it (RestoreSystem) and resumed produces byte-identical
// output to the uninterrupted original run.
type SystemState = core.SystemState

// CheckpointFn receives each periodic snapshot during a checkpointed
// run. Returning an error aborts the run with that error.
type CheckpointFn func(st *SystemState) error

// boundary adapts fn to core's lazy boundary protocol: capture the
// machine at every boundary, then hand the state over.
func (fn CheckpointFn) boundary() core.BoundaryFn {
	if fn == nil {
		return nil
	}
	return func(capture func() (*SystemState, error)) error {
		st, err := capture()
		if err != nil {
			return err
		}
		return fn(st)
	}
}

// CorruptSnapshotError reports a snapshot file that failed structural
// validation: bad magic, truncated body, checksum mismatch, or
// undecodable contents.
type CorruptSnapshotError = core.CorruptSnapshotError

// SnapshotVersionError reports a snapshot written by a different
// simulator revision — intact, but not resumable by this binary.
type SnapshotVersionError = core.SnapshotVersionError

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = core.SnapshotVersion

// WriteSnapshot writes st to path atomically (tmp + fsync + rename): a
// crash mid-write leaves the previous snapshot or none, never a torn
// file.
func WriteSnapshot(path string, st *SystemState) error {
	return core.WriteSnapshotFile(path, st)
}

// ReadSnapshot reads a snapshot written by WriteSnapshot, refusing
// damaged or version-skewed files with a typed error
// (CorruptSnapshotError / SnapshotVersionError).
func ReadSnapshot(path string) (*SystemState, error) {
	return core.ReadSnapshotFile(path)
}

// RestoreSystem rebuilds a system from a checkpoint. The machine is
// reconstructed from the snapshot's own config and mix; opt may supply
// a cancellation context (its FootprintScale and Seed are overridden by
// the snapshot's). Resume the result to continue the interrupted run.
func RestoreSystem(st *SystemState, opt Options) (*System, error) {
	inner, err := core.Restore(st, opt)
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// System is one wired simulated machine executing a workload mix.
type System struct {
	inner *core.System
}

// NewSystem builds a system for cfg running mix.
func NewSystem(cfg Config, mix Mix) (*System, error) {
	return NewSystemWithOptions(cfg, mix, Options{})
}

// NewSystemWithOptions builds a system with construction options
// (footprint scaling, seed override).
func NewSystemWithOptions(cfg Config, mix Mix, opt Options) (*System, error) {
	inner, err := core.Build(cfg, mix, opt)
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// Window returns the scaled retention window (tREFW) in CPU cycles —
// the natural unit for run durations.
func (s *System) Window() uint64 { return s.inner.Window() }

// AttachTrace records every demand memory request of the run to w.
// Call before Run and Flush the recorder afterwards.
func (s *System) AttachTrace(w io.Writer) (*TraceRecorder, error) {
	return s.inner.AttachTrace(w)
}

// AttachTimeline records a Perfetto-loadable timeline of the run —
// per-bank refresh slots, refresh-stalled reads, per-core task quanta,
// and scheduler skip decisions — flushed to w as Chrome trace-event
// JSON. Call before Run and Flush the recorder afterwards.
func (s *System) AttachTimeline(w io.Writer) (*TimelineRecorder, error) {
	return s.inner.AttachTimeline(w)
}

// Run executes warmup cycles unmeasured, then measure cycles measured,
// and returns the report. A System can run once.
func (s *System) Run(warmup, measure uint64) (*Report, error) {
	return s.inner.Run(warmup, measure)
}

// RunWindows is Run with durations in retention windows.
func (s *System) RunWindows(warmupWindows, measureWindows int) (*Report, error) {
	return s.inner.RunWindows(warmupWindows, measureWindows)
}

// RunCheckpointed is Run with periodic checkpoints: every `every`
// cycles of simulated time the machine is flattened into a SystemState
// and handed to fn (persist it with WriteSnapshot). Checkpoint
// boundaries split the engine's run into legs, which does not perturb
// execution — the report is byte-identical to an uncheckpointed run.
// Checkpointing is incompatible with an attached trace or timeline.
func (s *System) RunCheckpointed(warmup, measure, every uint64, fn CheckpointFn) (*Report, error) {
	return s.inner.RunCheckpointed(warmup, measure, every, fn.boundary())
}

// RunWindowsCheckpointed is RunCheckpointed with durations in retention
// windows.
func (s *System) RunWindowsCheckpointed(warmupWindows, measureWindows int, every uint64, fn CheckpointFn) (*Report, error) {
	w := s.inner.Window()
	return s.inner.RunCheckpointed(uint64(warmupWindows)*w, uint64(measureWindows)*w, every, fn.boundary())
}

// Resume continues a system built by RestoreSystem to the end of its
// original run, optionally emitting further checkpoints (every/fn as in
// RunCheckpointed; pass 0, nil for none). The returned report is
// byte-identical to the one the uninterrupted original run would have
// produced.
func (s *System) Resume(every uint64, fn CheckpointFn) (*Report, error) {
	return s.inner.Resume(every, fn.boundary())
}

// MetricsSnapshot reads every registered metric in the system,
// cumulative since construction. Report is a projection of the diff of
// two such snapshots; this exposes the full underlying hierarchy
// (per-bank, per-controller, per-task) for custom analysis.
func (s *System) MetricsSnapshot() MetricsSnapshot { return s.inner.MetricsSnapshot() }

// PredictApprox answers a run from the analytical fast-path model
// instead of the event-driven engine: microseconds per call, no System
// construction. Coverage is the calibrated policy bundles (none,
// allbank, perbank, and the co-design) over Table 2 mixes at both
// retention temperatures; other policies or custom mixes return an
// error. Predictions reproduce the exact engine at the model's
// calibration anchor densities and carry a validated error bound at
// interpolated ones — see internal/approx for the model and bounds.
// Reports have Events == 0, marking them as analytical.
func PredictApprox(cfg Config, mix Mix) (*Report, error) {
	return approx.Predict(cfg, mix)
}
