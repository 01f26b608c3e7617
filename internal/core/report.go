package core

import (
	"fmt"
	"strings"

	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel/buddy"
	"refsched/internal/kernel/sched"
	"refsched/internal/metrics"
	"refsched/internal/stats"
)

// TaskReport summarizes one task over the measurement interval.
type TaskReport struct {
	TaskID        int     `json:"task_id"`
	Bench         string  `json:"bench"`
	IPC           float64 `json:"ipc"`
	MPKI          float64 `json:"mpki"`
	Instructions  uint64  `json:"instructions"`
	CPUCycles     uint64  `json:"cpu_cycles"`
	MemStall      uint64  `json:"mem_stall"`
	LLCMisses     uint64  `json:"llc_misses"`
	PageFaults    uint64  `json:"page_faults"`
	Quanta        uint64  `json:"quanta"`
	FallbackPages uint64  `json:"fallback_pages"`
}

// Report summarizes one measured run. It is a pure projection of two
// metrics-registry snapshots — one at the end of warmup, one at the end
// of measurement — plus the run's static identity (mix, policy,
// density, bench names): every numeric field below is computed from
// snapshot counters, never read from a layer directly. The JSON
// encoding is stable (snake_case field names) and round-trips exactly,
// which is what lets journaled and served reports reproduce rendered
// output byte-identically.
type Report struct {
	Mix     string `json:"mix"`
	Policy  string `json:"policy"`
	Density string `json:"density"`

	// HarmonicIPC is the paper's headline metric: the harmonic mean of
	// per-task IPC over the measurement interval.
	HarmonicIPC float64 `json:"harmonic_ipc"`
	// AvgMemLatency is the mean demand-read latency (queue entry to
	// data) in CPU cycles.
	AvgMemLatency float64 `json:"avg_mem_latency"`
	// AvgMemLatencyMemCycles converts to DDR3-1600 memory-bus cycles,
	// the unit Figure 11 uses (4 CPU cycles per memory cycle at
	// 3.2 GHz / DDR3-1600).
	AvgMemLatencyMemCycles float64 `json:"avg_mem_latency_mem_cycles"`

	Tasks []TaskReport `json:"tasks"`

	// Memory-system aggregates.
	Reads               uint64  `json:"reads"`
	Writes              uint64  `json:"writes"`
	RowHitRate          float64 `json:"row_hit_rate"`
	RefreshCommands     uint64  `json:"refresh_commands"`
	RefreshStalledReads uint64  `json:"refresh_stalled_reads"`
	RefreshStallCycles  uint64  `json:"refresh_stall_cycles"`
	// RefreshStalledFrac is the fraction of demand reads that waited on
	// a refreshing bank — the mechanism the co-design eliminates.
	RefreshStalledFrac float64 `json:"refresh_stalled_frac"`

	// Energy is the channel energy breakdown over the measurement
	// interval (default DDR3-1600 model); RefreshEnergyFrac is
	// refresh's share of it.
	Energy            dram.EnergyBreakdown `json:"energy"`
	RefreshEnergyFrac float64              `json:"refresh_energy_frac"`

	// FairnessSpread is max/min CPU time across tasks over the
	// measurement interval (1.0 = perfectly fair). The refresh-aware
	// scheduler constrains which tasks may run in each slot, so this
	// quantifies the Section 5.4 fairness concern η exists to bound.
	FairnessSpread float64 `json:"fairness_spread"`

	// OS aggregates (cumulative over the whole run, including warmup,
	// as the paper's OS-side counters are).
	SchedStats sched.Stats `json:"sched_stats"`
	// SchedSkips is the distribution of consecutive candidates skipped
	// per pick_next_task call (unit-width buckets); mass at or beyond
	// η is the fallback regime. Cumulative over the whole run, like
	// SchedStats.
	SchedSkips     stats.HistogramView  `json:"sched_skips_per_pick"`
	AllocStats     buddy.PartitionStats `json:"alloc_stats"`
	IdleQuanta     uint64               `json:"idle_quanta"`
	TotalQuanta    uint64               `json:"total_quanta"`
	MeasuredCycles uint64               `json:"measured_cycles"`

	// Events is the number of discrete-event-engine events executed
	// during the measurement interval. Two runs of the same cell are
	// bit-identical iff this matches along with the metric fields, so
	// the parallel-runner determinism tests assert on it.
	Events uint64 `json:"events"`
}

// snapshot captures the registry for later differencing; called at the
// warmup/measurement boundary.
func (s *System) snapshot() metrics.Snapshot { return s.Reg.Snapshot() }

// taskDelta reconstructs one task's interval stats from the snapshot
// diff.
func taskDelta(d metrics.Snapshot, i int) cpu.TaskStats {
	pfx := fmt.Sprintf("task[%d].", i)
	return cpu.TaskStats{
		Instructions: d.Counter(pfx + "instructions"),
		CPUCycles:    d.Counter(pfx + "cpu_cycles"),
		MemStall:     d.Counter(pfx + "mem_stall"),
		LLCMisses:    d.Counter(pfx + "llc_misses"),
		PageFaults:   d.Counter(pfx + "page_faults"),
		Quanta:       d.Counter(pfx + "quanta"),
	}
}

// bankDelta sums a channel's per-bank interval counters (bank-major, so
// uint64 sums match the pre-registry per-channel aggregation exactly).
func bankDelta(d metrics.Snapshot, mcIdx, banks int) dram.BankStats {
	var b dram.BankStats
	for g := 0; g < banks; g++ {
		pfx := fmt.Sprintf("mc[%d].bank[%d].", mcIdx, g)
		b.Reads += d.Counter(pfx + "reads")
		b.Writes += d.Counter(pfx + "writes")
		b.RowHits += d.Counter(pfx + "row_hits")
		b.RowMisses += d.Counter(pfx + "row_misses")
		b.RowConflicts += d.Counter(pfx + "row_conflicts")
		b.Refreshes += d.Counter(pfx + "refreshes")
		b.RowsRefreshed += d.Counter(pfx + "rows_refreshed")
		b.RefreshBusyCycles += d.Counter(pfx + "refresh_busy_cycles")
	}
	return b
}

// report projects the measurement interval end.Diff(snap) — plus the
// cumulative end snapshot for the OS-side totals — into a Report.
func (s *System) report(snap metrics.Snapshot, measured uint64) *Report {
	end := s.Reg.Snapshot()
	d := end.Diff(snap)

	r := &Report{
		Mix:            s.Mix.Name,
		Policy:         string(s.Cfg.Refresh.Policy),
		Density:        s.Cfg.Mem.Density.String(),
		MeasuredCycles: measured,
		Events:         d.Counter("engine.events"),
	}

	var ipcs []float64
	for i, t := range s.Kernel.Tasks() {
		td := taskDelta(d, i)
		tr := TaskReport{
			TaskID:        t.ID(),
			Bench:         t.Bench.Name,
			IPC:           td.IPC(),
			MPKI:          td.MPKI(),
			Instructions:  td.Instructions,
			CPUCycles:     td.CPUCycles,
			MemStall:      td.MemStall,
			LLCMisses:     td.LLCMisses,
			PageFaults:    td.PageFaults,
			Quanta:        td.Quanta,
			FallbackPages: end.Counter(fmt.Sprintf("task[%d].fallback_pages", i)),
		}
		r.Tasks = append(r.Tasks, tr)
		if tr.IPC > 0 {
			ipcs = append(ipcs, tr.IPC)
		}
	}
	r.HarmonicIPC = stats.HarmonicMean(ipcs)

	var minCPU, maxCPU uint64
	for i, tr := range r.Tasks {
		if i == 0 || tr.CPUCycles < minCPU {
			minCPU = tr.CPUCycles
		}
		if tr.CPUCycles > maxCPU {
			maxCPU = tr.CPUCycles
		}
	}
	if minCPU > 0 {
		r.FairnessSpread = float64(maxCPU) / float64(minCPU)
	}

	var reads, writes, latSum, refCmds, refStalled, refStallCyc uint64
	for i := range s.MCs {
		pfx := fmt.Sprintf("mc[%d].", i)
		reads += d.Counter(pfx + "reads")
		writes += d.Counter(pfx + "writes")
		latSum += d.Counter(pfx + "read_latency_sum")
		refCmds += d.Counter(pfx + "refresh_commands")
		refStalled += d.Counter(pfx + "refresh_stalled_reads")
		refStallCyc += d.Counter(pfx + "refresh_stall_cycles")
	}
	r.Reads, r.Writes = reads, writes
	r.RefreshCommands = refCmds
	r.RefreshStalledReads = refStalled
	r.RefreshStallCycles = refStallCyc
	if reads > 0 {
		r.AvgMemLatency = float64(latSum) / float64(reads)
		r.AvgMemLatencyMemCycles = r.AvgMemLatency / 4
		r.RefreshStalledFrac = float64(refStalled) / float64(reads)
	}

	var hits, misses, conflicts uint64
	em := dram.DefaultEnergyModel()
	for i, ch := range s.Chans {
		delta := bankDelta(d, i, ch.TotalBanks())
		hits += delta.RowHits
		misses += delta.RowMisses
		conflicts += delta.RowConflicts
		e := em.Energy(delta, measured, s.Cfg.CPUFreqGHz)
		r.Energy.ActivateMJ += e.ActivateMJ
		r.Energy.ReadMJ += e.ReadMJ
		r.Energy.WriteMJ += e.WriteMJ
		r.Energy.RefreshMJ += e.RefreshMJ
		r.Energy.BackgroundMJ += e.BackgroundMJ
	}
	r.RefreshEnergyFrac = r.Energy.RefreshFrac()
	if tot := hits + misses + conflicts; tot > 0 {
		r.RowHitRate = float64(hits) / float64(tot)
	}

	r.SchedStats = sched.Stats{
		Picks:             end.Counter("sched.picks"),
		EligiblePicks:     end.Counter("sched.eligible_picks"),
		FallbackPicks:     end.Counter("sched.fallback_picks"),
		BestEffortPicks:   end.Counter("sched.best_effort_picks"),
		SkippedCandidates: end.Counter("sched.skipped_candidates"),
		Migrations:        end.Counter("sched.migrations"),
	}
	r.SchedSkips = end.Histogram("sched.skips_per_pick")
	r.AllocStats = buddy.PartitionStats{
		CacheHits: end.Counter("alloc.cache_hits"),
		BuddyHits: end.Counter("alloc.buddy_hits"),
		Stashed:   end.Counter("alloc.stashed"),
		Fallbacks: end.Counter("alloc.fallbacks"),
		Failures:  end.Counter("alloc.failures"),
	}
	r.IdleQuanta = end.Counter("kernel.idle_quanta")
	r.TotalQuanta = end.Counter("kernel.quanta")
	return r
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s: hIPC=%.4f memLat=%.1fcyc rowHit=%.2f refreshStalled=%.4f\n",
		r.Mix, r.Density, r.Policy, r.HarmonicIPC, r.AvgMemLatency, r.RowHitRate, r.RefreshStalledFrac)
	for _, t := range r.Tasks {
		fmt.Fprintf(&b, "  task %2d %-9s IPC=%.4f MPKI=%6.2f quanta=%d\n",
			t.TaskID, t.Bench, t.IPC, t.MPKI, t.Quanta)
	}
	return b.String()
}
