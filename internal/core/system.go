// Package core assembles the full simulated machine — cores, caches,
// memory controllers, DRAM, refresh policy, and the simulated OS — and
// runs measured experiments over multi-programmed workloads. It is the
// implementation behind the public refsched API.
package core

import (
	"context"
	"fmt"
	"io"

	"refsched/internal/cache"
	"refsched/internal/config"
	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel"
	"refsched/internal/kernel/buddy"
	"refsched/internal/mc"
	"refsched/internal/metrics"
	"refsched/internal/refresh"
	"refsched/internal/sim"
	"refsched/internal/timeline"
	"refsched/internal/trace"
	"refsched/internal/workload"
)

// Options tunes experiment construction beyond the machine config.
type Options struct {
	// FootprintScale multiplies every task's memory footprint
	// (default 1.0). Tests use small scales to keep runs fast; the
	// access pattern and MPKI class are footprint-scale invariant as
	// long as footprints stay well above the LLC size.
	FootprintScale float64
	// Seed overrides cfg.Seed when non-zero.
	Seed uint64
	// Ctx, when non-nil, hard-cancels a running simulation: the run
	// loop polls it at leg boundaries (at least every cancelCheckCycles
	// of simulated time) and a cancelled or expired context aborts the
	// run with a cell-tagged error wrapping the context error. This is
	// distinct from the sweep-level context in the runner, whose
	// cancellation lets in-flight cells finish: Ctx is for deadlines and
	// watchdogs that must abort even a wedged or oversized cell mid-run.
	Ctx context.Context
}

// cancelCheckCycles bounds (in simulated cycles) the run legs between
// polls of Options.Ctx — small enough that even heavily scaled
// quick-preset cells (whose whole run is a few hundred thousand
// cycles) are polled, while the poll itself (one ctx.Err call per leg)
// stays far off the per-event hot path.
const cancelCheckCycles = 1 << 16

// System is one fully wired simulated machine executing a workload mix.
type System struct {
	Cfg    config.System
	Eng    *sim.Engine
	Mapper *dram.Mapper
	Chans  []*dram.Channel
	MCs    []*mc.Controller
	Cores  []*cpu.Core
	Kernel *kernel.Kernel
	Mix    workload.Mix
	// Reg is the system's metrics registry: every layer's counters are
	// registered on it at Build time, and Report is a projection of its
	// snapshots. The hot path never touches it — layers increment their
	// own registered uint64 fields.
	Reg *metrics.Registry

	timing  dram.Timing
	started bool
	ctx     context.Context // Options.Ctx; nil = never cancelled

	// footprintScale is the effective Options.FootprintScale, recorded
	// so a checkpoint can rebuild an identical system.
	footprintScale float64
	// observed marks a trace or timeline recorder attached: those
	// observers' state is not serialized, so checkpointing is refused.
	observed bool

	// Restore-side state: a restored system resumes from mid-run
	// instead of starting at cycle zero.
	restored   bool
	resWarmup  uint64
	resMeasure uint64
	pastWarmup bool
	warmSnap   metrics.Snapshot
}

// Build constructs a system for cfg running mix.
func Build(cfg config.System, mix workload.Mix, opt Options) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.FootprintScale == 0 {
		opt.FootprintScale = 1
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}

	s := &System{Cfg: cfg, Eng: sim.NewEngine(), Mix: mix, ctx: opt.Ctx, footprintScale: opt.FootprintScale}
	// Pre-size the event queues for the steady-state population: each
	// core keeps up to MLP misses in flight, each controller schedules
	// per-queue-entry work, plus refresh/scheduler housekeeping.
	s.Eng.Reserve(cfg.Cores*cfg.MLP + cfg.Mem.Channels*(cfg.Mem.ReadQueue+cfg.Mem.WriteQueue) + 64)
	s.timing = dram.TimingFrom(&s.Cfg)

	var err error
	s.Mapper, err = dram.NewMapper(cfg.Mem)
	if err != nil {
		return nil, err
	}

	// DRAM channels, refresh policies and controllers.
	geo := refresh.Geometry{
		Ranks:        cfg.Mem.Ranks(),
		BanksPerRank: cfg.Mem.BanksPerRank,
		Subarrays:    cfg.Mem.SubarraysPerBank,
		Timing:       &s.timing,
	}
	var planner refresh.SlotPlanner
	for ch := 0; ch < cfg.Mem.Channels; ch++ {
		channel := dram.NewChannel(ch, cfg.Mem, &s.timing)
		pol, err := refresh.New(cfg.Refresh.Policy, geo)
		if err != nil {
			return nil, err
		}
		if p, ok := pol.(refresh.SlotPlanner); ok && planner == nil {
			planner = p
		}
		s.Chans = append(s.Chans, channel)
		s.MCs = append(s.MCs, mc.New(s.Eng, channel, cfg.Mem, pol))
	}

	// Cores with private cache stacks.
	for i := 0; i < cfg.Cores; i++ {
		hier, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, cpu.NewCore(i, s.Eng, (*memoryPath)(s), hier, cfg.BaseCPI, cfg.MLP, cfg.ROB))
	}
	if err := checkAddressWidth(cfg); err != nil {
		return nil, err
	}

	// OS: buddy + partition allocator, VM, scheduler.
	bud, err := buddy.New(s.Mapper.TotalPages())
	if err != nil {
		return nil, err
	}
	alloc := buddy.NewPartitionAllocator(bud, s.Mapper)
	s.Kernel = kernel.New(s.Eng, &s.Cfg, alloc, s.Mapper, s.Cores, planner)

	// Tasks from the mix, each with a private random stream.
	rnd := sim.NewRand(cfg.Seed)
	benches, err := mix.Tasks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		fp := uint64(float64(b.Footprint) * opt.FootprintScale)
		if fp < 1<<16 {
			fp = 1 << 16
		}
		gen := b.New(rnd.Fork(), fp)
		s.Kernel.AddTask(b, gen)
	}
	s.Kernel.AssignMasks()
	s.registerMetrics()
	s.Eng.SetExec(s.execPayload)
	return s, nil
}

// checkAddressWidth refuses a machine whose physical addresses do not
// fit the simulator's 32-bit fields: a page table entry holds a page
// frame number (plus one), and a cache tag holds an address divided by
// the bytes one cache way spans (sets × line size). With Table 1's
// geometry both allow just under 2^44 bytes (16 TiB). Build runs it
// once, after the caches have validated their shapes, so the hot path
// never repeats it.
func checkAddressWidth(cfg config.System) error {
	span := cfg.Mem.RowBytes
	for _, l := range []config.CacheConfig{cfg.L1, cfg.L2} {
		span = min(span, l.Sets()*l.LineBytes)
	}
	if capacity := cfg.Mem.TotalCapacity(); capacity/span >= 1<<32 {
		return fmt.Errorf("core: %d bytes of physical memory exceed the %d that 32-bit page frames and cache tags address",
			capacity, span<<32-1)
	}
	return nil
}

// execPayload is the machine's single event dispatcher: every layer
// schedules typed payload events (see sim.Payload) and this routes them
// back to the owning component. Payloads are plain data, which is what
// makes the engine's pending-event set serializable for
// checkpoint/restore.
func (s *System) execPayload(p sim.Payload) {
	switch p.Kind {
	case sim.KindMCRefreshTick, sim.KindMCTryIssue:
		s.MCs[p.A].Exec(p)
	case sim.KindMCComplete:
		// B = core+1; 0 means an unowned (posted-write) completion,
		// which notifies nobody but still counts in Report.Events.
		if p.B != 0 {
			s.Cores[p.B-1].MissComplete(p.C, p.D)
		}
	case sim.KindCPUSubmitRead, sim.KindCPUSubmitWrite, sim.KindCPUQuantumEnd:
		s.Cores[p.A].Exec(p)
	case sim.KindKernelDispatch, sim.KindKernelRunTask, sim.KindKernelWake:
		s.Kernel.Exec(p)
	default:
		panic(fmt.Sprintf("core: unexpected payload kind %d", p.Kind))
	}
}

// registerMetrics binds every layer's counters onto the system's
// registry under hierarchical scopes. The stat structs stay the
// hot-path write targets; the registry only reads them at snapshot
// time. New per-layer measurements are one registration line here (or
// zero: a new uint64 field on a registered struct is picked up
// automatically).
func (s *System) registerMetrics() {
	s.Reg = metrics.NewRegistry()
	root := s.Reg.Root()

	root.Sub("engine").CounterPtr("events", &s.Eng.Executed)

	for i, c := range s.MCs {
		c := c
		scope := root.Subf("mc[%d]", i)
		scope.Struct(&c.Stats)
		scope.Sub("refresh").Struct(&c.PolicyStats)
		scope.GaugeFunc("read_queue_depth", func() float64 { return float64(c.ReadQueueLen()) })
		scope.GaugeFunc("write_queue_depth", func() float64 { return float64(c.WriteQueueLen()) })
		ch := s.Chans[i]
		for g := 0; g < ch.TotalBanks(); g++ {
			scope.Subf("bank[%d]", g).Struct(&ch.Bank(g).Stats)
		}
	}

	for i, t := range s.Kernel.Tasks() {
		scope := root.Subf("task[%d]", i)
		scope.Struct(t.Stats())
		scope.CounterPtr("fallback_pages", &t.FallbackPages)
	}

	schedScope := root.Sub("sched")
	schedScope.Struct(s.Kernel.Picker().Stats())
	schedScope.Histogram("skips_per_pick", s.Kernel.Picker().SkipHistogram())
	root.Sub("alloc").Struct(&s.Kernel.Allocator().Stats)
	root.Sub("kernel").Struct(&s.Kernel.Stats)
}

// MetricsSnapshot reads the full registry (cumulative since
// construction) — the machine-readable counterpart of Report.
func (s *System) MetricsSnapshot() metrics.Snapshot { return s.Reg.Snapshot() }

// Window returns the scaled retention window in cycles — the natural
// unit for warmup/measure durations.
func (s *System) Window() uint64 { return s.Cfg.TREFW() }

// AttachTrace records every demand memory request of the run to w in
// the trace package's binary format. Call before Run; call the returned
// recorder's Flush after Run. See internal/trace.
func (s *System) AttachTrace(w io.Writer) (*trace.Recorder, error) {
	if s.started {
		return nil, fmt.Errorf("core: cannot attach a trace after Run")
	}
	s.observed = true
	rec := trace.NewRecorder(w)
	for _, c := range s.MCs {
		c.SetTracer(func(cycle, addr uint64, write bool, task int) {
			rec.Record(trace.Record{Cycle: cycle, Addr: addr, Write: write, TaskID: int32(task)})
		})
	}
	return rec, nil
}

// AttachTimeline records simulator spans — per-bank refresh busy
// slots, refresh-stalled reads, per-core task quanta, and scheduler
// skip decisions — into a Perfetto-loadable timeline flushed to w as
// Chrome trace-event JSON. Call before Run; call the returned
// recorder's Flush after Run. Simulated cycles are emitted as integer
// trace microseconds (1 cycle = 1 µs of trace time). See
// internal/timeline for the track layout.
func (s *System) AttachTimeline(w io.Writer) (*timeline.Recorder, error) {
	if s.started {
		return nil, fmt.Errorf("core: cannot attach a timeline after Run")
	}
	s.observed = true
	rec := timeline.NewRecorder(w, 0)
	rec.SetProcessName(timeline.PidCPU, "cpu")
	for _, c := range s.Cores {
		rec.SetThreadName(timeline.PidCPU, int32(c.ID), fmt.Sprintf("core%d", c.ID))
	}
	s.Kernel.SetTimeline(rec)
	for i, c := range s.MCs {
		pid := int32(timeline.PidDRAMBase + i)
		rec.SetProcessName(pid, fmt.Sprintf("dram ch%d (%s)", i, s.Cfg.Refresh.Policy))
		ch := s.Chans[i]
		for g := 0; g < ch.TotalBanks(); g++ {
			rec.SetThreadName(pid, int32(g), fmt.Sprintf("bank%d", g))
		}
		c.SetTimeline(rec, pid)
	}
	return rec, nil
}

// SetTaskMasks overrides every task's possible-banks vector (replacing
// whatever AssignMasks chose). It must be called before Run. masks must
// have one entry per task.
func (s *System) SetTaskMasks(masks []buddy.BankMask) error {
	if s.started {
		return fmt.Errorf("core: cannot set masks after Run")
	}
	tasks := s.Kernel.Tasks()
	if len(masks) != len(tasks) {
		return fmt.Errorf("core: %d masks for %d tasks", len(masks), len(tasks))
	}
	for i, t := range tasks {
		t.Ent.Mask = masks[i]
	}
	return nil
}

// Run executes the workload with warmup cycles of cache/queue warmup
// followed by measure cycles of measured execution, and returns the
// report. It may be called once per System; see RunCheckpointed for
// the error boundary.
func (s *System) Run(warmup, measure uint64) (*Report, error) {
	return s.RunCheckpointed(warmup, measure, 0, nil)
}

// RunWindows runs warmupW retention windows of warmup and measureW
// windows of measurement.
func (s *System) RunWindows(warmupW, measureW int) (*Report, error) {
	w := s.Window()
	return s.Run(uint64(warmupW)*w, uint64(measureW)*w)
}

// memoryPath adapts System to cpu.Memory, routing by channel.
type memoryPath System

// NewRequest implements cpu.Memory: the channel's controller supplies
// the request.
func (m *memoryPath) NewRequest(addr uint64) *mc.Request {
	coord := m.Mapper.Decode(addr)
	return m.MCs[coord.Channel].NewRequest(addr, coord)
}

// SubmitRead implements cpu.Memory.
func (m *memoryPath) SubmitRead(r *mc.Request) bool {
	return m.MCs[r.Coord.Channel].SubmitRead(r)
}

// WhenReadSpace implements cpu.Memory.
func (m *memoryPath) WhenReadSpace(ch int, r *mc.Request) { m.MCs[ch].WhenReadSpace(r) }

// SubmitWrite implements cpu.Memory.
func (m *memoryPath) SubmitWrite(r *mc.Request) bool {
	return m.MCs[r.Coord.Channel].SubmitWrite(r)
}

// WhenWriteSpace implements cpu.Memory.
func (m *memoryPath) WhenWriteSpace(ch int, r *mc.Request) { m.MCs[ch].WhenWriteSpace(r) }
