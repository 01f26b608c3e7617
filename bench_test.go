// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment, reporting the headline metric via b.ReportMetric), plus
// microbenchmarks for the core substrates.
//
// The figure benches run a reduced-fidelity sweep per iteration, so run
// them with -benchtime=1x for a single regeneration:
//
//	go test -bench 'BenchmarkFig' -benchtime=1x
//
// Each iteration gets a fresh harness.CellStore, so it simulates its
// cells instead of answering them from the process-wide store.
// Full-fidelity numbers come from cmd/experiments (see EXPERIMENTS.md).
package refsched_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"refsched"
	"refsched/internal/cache"
	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/kernel/buddy"
	"refsched/internal/sim"
	"refsched/internal/timeline"
	"refsched/internal/workload"
)

// benchParams is the reduced-fidelity preset for figure benches.
func benchParams() harness.Params {
	return harness.Params{
		Scale:          512,
		FootprintScale: 0.02,
		WarmupWindows:  1,
		MeasureWindows: 1,
		Mixes:          []string{"WL-6"},
		Seed:           1,
	}
}

// benchFigure regenerates one experiments target per iteration through
// harness.RunFigure, each iteration under a store of its own.
func benchFigure(b *testing.B, name string) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Store = &harness.CellStore{}
		if _, err := harness.RunFigure(name, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Config regenerates Table 1 (configuration rendering —
// trivially fast; exists so every table has a bench target).
func BenchmarkTable1Config(b *testing.B) { benchFigure(b, "table1") }

// BenchmarkTable2Workloads regenerates Table 2.
func BenchmarkTable2Workloads(b *testing.B) { benchFigure(b, "table2") }

// BenchmarkFig3RefreshDegradation regenerates Figure 3.
func BenchmarkFig3RefreshDegradation(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4BankConfinement regenerates Figure 4.
func BenchmarkFig4BankConfinement(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5CapacityFit regenerates Figure 5 (allocator capacity
// study over the SPEC footprint table).
func BenchmarkFig5CapacityFit(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig10CoDesignIPC regenerates Figures 10+11 and reports the
// co-design IPC gain over all-bank at 32 Gb as a custom metric.
func BenchmarkFig10CoDesignIPC(b *testing.B) {
	p := benchParams()
	var gain float64
	for i := 0; i < b.N; i++ {
		mix := workload.Table2()[5] // WL-6
		ab := mustRun(b, p, config.RefreshAllBank, false, mix)
		cd := mustRun(b, p, config.RefreshPerBankSeq, true, mix)
		gain = cd.HarmonicIPC/ab.HarmonicIPC - 1
	}
	b.ReportMetric(gain*100, "gain%")
}

// BenchmarkFig11MemLatency reports the co-design's average memory
// latency in memory cycles (the Figure 11 metric).
func BenchmarkFig11MemLatency(b *testing.B) {
	p := benchParams()
	var lat float64
	for i := 0; i < b.N; i++ {
		cd := mustRun(b, p, config.RefreshPerBankSeq, true, workload.Table2()[5])
		lat = cd.AvgMemLatencyMemCycles
	}
	b.ReportMetric(lat, "memcycles")
}

// BenchmarkFig12FGRModes regenerates Figure 12.
func BenchmarkFig12FGRModes(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13LowRetention regenerates Figure 13 (32 ms retention).
func BenchmarkFig13LowRetention(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14PriorWork regenerates Figure 14 (OOO per-bank, AR).
func BenchmarkFig14PriorWork(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15Sensitivity regenerates Figure 15 (cores x
// consolidation x DIMM sweep).
func BenchmarkFig15Sensitivity(b *testing.B) { benchFigure(b, "fig15") }

// BenchmarkExt1Extensions regenerates the beyond-paper extension
// comparison (Elastic, Pausing, RAIDR, subarray-level refresh).
func BenchmarkExt1Extensions(b *testing.B) { benchFigure(b, "ext1") }

func mustRun(b *testing.B, p harness.Params, pol config.RefreshPolicy, codesign bool, mix workload.Mix) *core.Report {
	b.Helper()
	cfg := config.Default(config.Density32Gb, p.Scale)
	cfg.Refresh.Policy = pol
	if codesign {
		cfg.OS.Alloc = config.AllocSoftPartition
		cfg.OS.Scheduler = config.SchedCFS
		cfg.OS.RefreshAware = true
	}
	sys, err := core.Build(cfg, mix, core.Options{FootprintScale: p.FootprintScale})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.RunWindows(p.WarmupWindows, p.MeasureWindows)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// --- design-choice ablations ---

// ablationRun runs WL-6 at 32 Gb with a config mutation and returns
// harmonic IPC.
func ablationRun(b *testing.B, mutate func(*config.System)) float64 {
	b.Helper()
	p := benchParams()
	cfg := config.Default(config.Density32Gb, p.Scale)
	cfg.Refresh.Policy = config.RefreshPerBankSeq
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	mutate(&cfg)
	sys, err := core.Build(cfg, workload.Table2()[5], core.Options{FootprintScale: p.FootprintScale})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sys.RunWindows(p.WarmupWindows, p.MeasureWindows)
	if err != nil {
		b.Fatal(err)
	}
	return rep.HarmonicIPC
}

// BenchmarkAblationRowPolicy compares open- vs closed-page row policy
// under the co-design (Table 1 chooses open-row).
func BenchmarkAblationRowPolicy(b *testing.B) {
	var open, closed float64
	for i := 0; i < b.N; i++ {
		open = ablationRun(b, func(*config.System) {})
		closed = ablationRun(b, func(c *config.System) { c.Mem.ClosedPage = true })
	}
	b.ReportMetric(open/closed, "open/closed")
}

// BenchmarkAblationFRFCFS compares FR-FCFS against strict FCFS
// transaction scheduling (Table 1 chooses FR-FCFS).
func BenchmarkAblationFRFCFS(b *testing.B) {
	var frfcfs, fcfs float64
	for i := 0; i < b.N; i++ {
		frfcfs = ablationRun(b, func(*config.System) {})
		fcfs = ablationRun(b, func(c *config.System) { c.Mem.FCFS = true })
	}
	b.ReportMetric(frfcfs/fcfs, "frfcfs/fcfs")
}

// BenchmarkAblationSoftVsHard compares the paper's soft partitioning
// against hard (exclusive-bank) partitioning under the co-design.
func BenchmarkAblationSoftVsHard(b *testing.B) {
	var soft, hard float64
	for i := 0; i < b.N; i++ {
		soft = ablationRun(b, func(*config.System) {})
		hard = ablationRun(b, func(c *config.System) { c.OS.Alloc = config.AllocHardPartition })
	}
	b.ReportMetric(soft/hard, "soft/hard")
}

// BenchmarkAblationEta compares the η fairness threshold: η=1 disables
// refresh awareness entirely (Section 5.4), so the default η should win.
func BenchmarkAblationEta(b *testing.B) {
	var etaDefault, etaOne float64
	for i := 0; i < b.N; i++ {
		etaDefault = ablationRun(b, func(*config.System) {})
		etaOne = ablationRun(b, func(c *config.System) { c.OS.EtaThresh = 1 })
	}
	b.ReportMetric(etaDefault/etaOne, "eta4/eta1")
}

// BenchmarkAblationBanksPerTask sweeps the 6-banks-per-task sweet spot
// against 4 (the paper's footnote 11).
func BenchmarkAblationBanksPerTask(b *testing.B) {
	var six, four float64
	for i := 0; i < b.N; i++ {
		six = ablationRun(b, func(*config.System) {})
		four = ablationRun(b, func(c *config.System) { c.OS.BanksPerTask = 4 })
	}
	b.ReportMetric(six/four, "6banks/4banks")
}

// BenchmarkFig10Parallel measures the parallel sweep runner: one
// serial (-j 1) and one all-CPUs Figure 10 regeneration per iteration,
// reporting the wall-clock speedup. Results are identical at any -j
// (see TestFig10ParallelDeterminism); only wall-clock changes, so the
// speedup approaches min(NumCPU, cells) on unloaded multi-core hosts
// and 1.0 on a single-core host.
func BenchmarkFig10Parallel(b *testing.B) {
	p := benchParams()
	p.Mixes = []string{"WL-1", "WL-5", "WL-6", "WL-8"} // enough cells to fan out
	var speedup float64
	for i := 0; i < b.N; i++ {
		p.Parallelism = 1
		p.Store = &harness.CellStore{}
		t0 := time.Now()
		if _, err := harness.RunFigure("fig10", p); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		p.Parallelism = runtime.NumCPU()
		p.Store = &harness.CellStore{}
		t0 = time.Now()
		if _, err := harness.RunFigure("fig10", p); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t0)
		speedup = serial.Seconds() / parallel.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// --- substrate microbenchmarks ---

// runEvents seeds e with seed events (delay(i) cycles from now) whose
// every execution schedules a successor delay(i) cycles on, calling
// body first, until n events have run; the run itself is timed.
func runEvents(b *testing.B, seed int, delay func(i int) sim.Time, body func()) {
	e := sim.NewEngine()
	e.Reserve(256)
	n := 0
	e.SetExec(func(sim.Payload) {
		body()
		if n < b.N {
			e.SchedulePAt(e.Now()+delay(n), sim.Payload{})
		}
		n++
	})
	for i := 0; i < seed; i++ {
		e.SchedulePAt(delay(i), sim.Payload{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(math.MaxUint64)
}

// BenchmarkEngineScheduleStep measures the event-engine hot path: one
// calendar-path schedule plus one execution per iteration against a
// warm 128-event population. The hand-rolled monomorphic stores must
// stay at 0 allocs/op (container/heap's interface{} boxing paid ≥1 per
// event).
func BenchmarkEngineScheduleStep(b *testing.B) {
	runEvents(b, 128, func(i int) sim.Time { return sim.Time(i%31) + 1 }, func() {})
}

// BenchmarkEngineTimelineDisabled pins the cost of the tracing seam
// when tracing is off: the hot path guards every emission behind a nil
// check on the recorder, so a disabled timeline must add zero
// allocations to the engine loop (the acceptance contract for keeping
// timeline hooks compiled into the simulator unconditionally).
func BenchmarkEngineTimelineDisabled(b *testing.B) {
	var tl *timeline.Recorder // disabled: exactly how mc/kernel hold it
	runEvents(b, 128, func(i int) sim.Time { return sim.Time(i%31) + 1 }, func() {
		if tl != nil {
			tl.Span(timeline.PidCPU, 0, "tick", 0, 1)
		}
	})
}

// BenchmarkEngineSameCycleFIFO measures the same-cycle fast path:
// events scheduled for the current cycle bypass the calendar and heap.
func BenchmarkEngineSameCycleFIFO(b *testing.B) {
	runEvents(b, 1, func(int) sim.Time { return 0 }, func() {})
}

// BenchmarkEngineEventThroughput measures raw throughput of a single
// self-rescheduling event one cycle apart.
func BenchmarkEngineEventThroughput(b *testing.B) {
	runEvents(b, 1, func(int) sim.Time { return 1 }, func() {})
}

// BenchmarkCacheAccess measures hierarchy access throughput on a
// seeded, miss-heavy stream: three accesses in four touch a line of an
// 8 MB region (eight times L2), the rest a 16 KB hot set that L1 holds,
// and a third are writes, so fills evict dirty victims at both levels.
// One pass over the stream warms the hierarchy before timing starts.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.Default(config.Density32Gb, 64)
	h, err := cache.NewHierarchy(cfg.L1, cfg.L2)
	if err != nil {
		b.Fatal(err)
	}
	type access struct {
		addr  uint64
		write bool
	}
	stream := make([]access, 1<<16)
	r := sim.NewRand(1)
	for i := range stream {
		span := uint64(8 << 20)
		if r.Uint64n(4) == 0 {
			span = 16 << 10
		}
		stream[i] = access{addr: r.Uint64n(span) &^ 7, write: r.Uint64n(3) == 0}
	}
	for _, a := range stream {
		h.Access(a.addr, a.write)
	}
	l2 := h.L2.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i%len(stream)]
		h.Access(a.addr, a.write)
	}
	b.StopTimer()
	if n := h.L2.Stats.Accesses - l2.Accesses; n > 0 {
		b.ReportMetric(float64(h.L2.Stats.Writebacks-l2.Writebacks)/float64(b.N), "dirty-evictions/op")
		b.ReportMetric(float64(h.L2.Stats.Misses-l2.Misses)/float64(b.N), "l2-misses/op")
	}
}

// BenchmarkBuddyAllocFree measures allocator page churn.
func BenchmarkBuddyAllocFree(b *testing.B) {
	a, err := buddy.New(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := a.AllocPage()
		if !ok {
			b.Fatal("exhausted")
		}
		a.FreePage(p)
	}
}

// BenchmarkFullSystemCyclesPerSecond measures end-to-end simulation
// speed: simulated CPU cycles per wall-second on the co-design config.
func BenchmarkFullSystemCyclesPerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := refsched.CoDesign(refsched.DefaultConfig(refsched.Density32Gb, 512))
		sys, err := refsched.NewSystemWithOptions(cfg, refsched.Table2()[5],
			refsched.Options{FootprintScale: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunWindows(0, 1); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sys.Window()), "simcycles/op")
	}
}
