// Package kernel composes the simulated operating system: demand-paged
// virtual memory over the bank-aware buddy allocator (Algorithm 2),
// task scheduling (round-robin baseline or CFS with the refresh-aware
// Algorithm 3), per-task possible-banks vectors, and the quantum grid
// that the co-design aligns with the hardware refresh slots.
package kernel

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel/buddy"
	"refsched/internal/kernel/sched"
	"refsched/internal/kernel/vm"
	"refsched/internal/refresh"
	"refsched/internal/sim"
	"refsched/internal/timeline"
	"refsched/internal/workload"
)

// Task is a simulated process: workload stream + address space +
// scheduling entity. It implements cpu.Task.
type Task struct {
	id    int
	Bench workload.Benchmark
	gen   workload.Generator
	AS    *vm.AddressSpace
	Ent   *sched.Entity
	stats cpu.TaskStats
	k     *Kernel

	lastAllocedBank int
	// FallbackPages counts pages allocated outside the task's mask.
	FallbackPages uint64

	// Sleep pattern (Section 5.4 caveat: desired tasks may not be
	// runnable): after every SleepEveryQuanta quanta the task blocks
	// for SleepForCycles. Zero disables sleeping.
	SleepEveryQuanta uint64
	SleepForCycles   uint64
	quantaSinceSleep uint64
	// Sleeps counts completed sleep episodes.
	Sleeps uint64

	// Pushed-back partial segment (preemption mid-segment).
	pushed  bool
	pInstrs uint64
	pAcc    workload.Access
}

// SetNice sets the task's scheduling priority (Linux nice semantics,
// -20 highest to +19 lowest). Takes effect from the next enqueue.
func (t *Task) SetNice(nice int) {
	t.Ent.Weight = sched.NiceToWeight(nice)
}

// ID implements cpu.Task.
func (t *Task) ID() int { return t.id }

// Stats implements cpu.Task.
func (t *Task) Stats() *cpu.TaskStats { return &t.stats }

// Next implements cpu.Task.
func (t *Task) Next() (uint64, workload.Access) {
	if t.pushed {
		t.pushed = false
		return t.pInstrs, t.pAcc
	}
	return t.gen.Next()
}

// PushBack implements cpu.Task.
func (t *Task) PushBack(instrs uint64, acc workload.Access) {
	t.pushed = true
	t.pInstrs = instrs
	t.pAcc = acc
}

// OutOfMemoryError is the sim.Fault raised when a demand page fault
// finds no free physical frame — a runtime condition of the configured
// machine (footprints exceeding DRAM capacity), not a programmer bug.
// It unwinds out of the event loop and is converted into a returned
// error at the core run boundary.
type OutOfMemoryError struct {
	TaskID     int
	VAddr      uint64
	TotalPages uint64
}

// Error implements error.
func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("kernel: out of physical memory (%d pages) faulting vaddr %#x for task %d",
		e.TotalPages, e.VAddr, e.TaskID)
}

// SimulationFault implements sim.Fault.
func (*OutOfMemoryError) SimulationFault() {}

// Translate implements cpu.Task: page-table walk with demand paging
// through the partition allocator.
func (t *Task) Translate(vaddr uint64) (uint64, uint64) {
	if paddr, ok := t.AS.Lookup(vaddr); ok {
		return paddr, 0
	}
	pfn, fellBack, ok := t.k.alloc.AllocPageFor(t.Ent.Mask, &t.lastAllocedBank)
	if !ok {
		panic(&OutOfMemoryError{TaskID: t.id, VAddr: vaddr, TotalPages: t.k.alloc.TotalPages()})
	}
	if fellBack {
		t.FallbackPages++
	}
	paddr := t.AS.Map(vaddr, pfn)
	return paddr, t.k.cfg.OS.PageFaultCycles
}

// Stats aggregates kernel-level counters.
type Stats struct {
	Quanta        uint64
	IdleQuanta    uint64
	CtxSwitches   uint64
	LoadBalances  uint64
	SleepEpisodes uint64
}

// Kernel is the simulated OS instance.
type Kernel struct {
	eng     *sim.Engine
	cfg     *config.System
	alloc   *buddy.PartitionAllocator
	sched   *sched.Scheduler
	planner refresh.SlotPlanner // non-nil only for the co-design schedule
	mapper  *dram.Mapper

	tasks   []*Task
	cores   []*cpu.Core
	quantum uint64

	// runStart tracks when each core's current quantum began (for
	// vruntime charging); lastTask is the task dispatched there.
	runStart []sim.Time
	lastTask []*Task

	// tl, when set, records per-core quantum spans and pick-skip
	// instants on the CPU tracks (pid timeline.PidCPU, tid = core id);
	// lastSkips holds the η skip count of each core's current pick so
	// the quantum span can carry it as an arg.
	tl        *timeline.Recorder
	lastSkips []uint64

	// onEnd is onQuantumEnd bound once: taking a method value allocates,
	// and every dispatch hands the callback to a core.
	onEnd func(*cpu.Core, sim.Time)

	Stats Stats
}

// New builds a kernel over the given allocator and cores. planner may be
// nil; refresh awareness then degrades to plain scheduling (avoid = 0),
// mirroring hardware without an exposed refresh schedule.
func New(eng *sim.Engine, cfg *config.System, alloc *buddy.PartitionAllocator, mapper *dram.Mapper, cores []*cpu.Core, planner refresh.SlotPlanner) *Kernel {
	var sc *sched.Scheduler
	switch cfg.OS.Scheduler {
	case config.SchedCFS:
		sc = sched.NewCFS(len(cores), cfg.OS.EtaThresh, true)
	default:
		sc = sched.NewRR(len(cores))
	}
	k := &Kernel{
		eng:      eng,
		cfg:      cfg,
		alloc:    alloc,
		sched:    sc,
		planner:  planner,
		mapper:   mapper,
		cores:    cores,
		quantum:  cfg.Timeslice(),
		runStart: make([]sim.Time, len(cores)),
		lastTask: make([]*Task, len(cores)),
	}
	k.onEnd = k.onQuantumEnd
	return k
}

// SetTimeline installs a timeline recorder for the per-core CPU
// tracks (nil disables recording).
func (k *Kernel) SetTimeline(rec *timeline.Recorder) {
	k.tl = rec
	if k.lastSkips == nil {
		k.lastSkips = make([]uint64, len(k.cores))
	}
}

// Scheduler exposes the scheduler (for stats and tests).
func (k *Kernel) Scheduler() *sched.Scheduler { return k.sched }

// Allocator exposes the partition allocator.
func (k *Kernel) Allocator() *buddy.PartitionAllocator { return k.alloc }

// Tasks returns the task list.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// AddTask registers a new process with the given workload stream.
func (k *Kernel) AddTask(b workload.Benchmark, gen workload.Generator) *Task {
	t := &Task{
		id:              len(k.tasks),
		Bench:           b,
		gen:             gen,
		AS:              vm.NewAddressSpace(k.cfg.Mem.RowBytes, k.mapper),
		k:               k,
		lastAllocedBank: -1,
	}
	t.Ent = &sched.Entity{TaskID: t.id, Occupancy: t.AS.BankOccupancy}
	k.tasks = append(k.tasks, t)
	return t
}

// AssignMasks computes every task's possible_banks_vector according to
// the configured allocation policy:
//
//   - buddy: full mask (bank-oblivious baseline);
//   - soft:  tasks form groups; each group is excluded from a distinct
//     stripe of banksPerRank-BanksPerTask bank indices (in every rank),
//     so groups share banks but every bank index has, on each CPU's
//     queue, at least one task with no data on it — the property the
//     refresh-aware scheduler needs;
//   - hard:  each task receives an exclusive contiguous bank range.
func (k *Kernel) AssignMasks() {
	nb := k.cfg.Mem.BanksPerRank
	nr := k.cfg.Mem.Ranks()
	total := nb * nr
	all := buddy.AllBanks(total)
	n := len(k.tasks)

	switch k.cfg.OS.Alloc {
	case config.AllocSoftPartition:
		kBanks := k.cfg.OS.BanksPerTask
		if kBanks <= 0 || kBanks >= nb {
			for _, t := range k.tasks {
				t.Ent.Mask = all
			}
			return
		}
		e := nb - kBanks
		nGroups := nb / e
		if nGroups < 1 {
			nGroups = 1
		}
		cores := len(k.cores)
		for i, t := range k.tasks {
			g := (i / cores) % nGroups
			mask := all
			for j := 0; j < e; j++ {
				b := (g*e + j) % nb
				for r := 0; r < nr; r++ {
					mask &^= 1 << uint(r*nb+b)
				}
			}
			t.Ent.Mask = mask
		}
	case config.AllocHardPartition:
		if n == 0 {
			return
		}
		per := total / n
		if per < 1 {
			per = 1
		}
		for i, t := range k.tasks {
			var mask buddy.BankMask
			for j := 0; j < per; j++ {
				mask = mask.Set((i*per + j) % total)
			}
			t.Ent.Mask = mask
		}
	default:
		for _, t := range k.tasks {
			t.Ent.Mask = all
		}
	}
}

// Start assigns tasks to CPUs round-robin and launches the first quantum
// on every core. Call once, at time zero, after AddTask/AssignMasks.
func (k *Kernel) Start() {
	for i, t := range k.tasks {
		k.sched.Enqueue(i%len(k.cores), t.Ent)
	}
	for _, c := range k.cores {
		k.dispatch(c, k.eng.Now())
	}
}

// boundary returns the first quantum-grid boundary strictly after t.
func (k *Kernel) boundary(t sim.Time) sim.Time {
	return (t/sim.Time(k.quantum) + 1) * sim.Time(k.quantum)
}

// avoidMask returns the banks whose refresh slots intersect [from, to).
func (k *Kernel) avoidMask(from, to sim.Time) buddy.BankMask {
	if k.planner == nil || !k.cfg.OS.RefreshAware {
		return 0
	}
	var m buddy.BankMask
	slot := sim.Time(k.planner.SlotCycles())
	if slot == 0 {
		return 0
	}
	for t := from; t < to; {
		m = m.Set(k.planner.BankAtTime(t))
		next := (t/slot + 1) * slot
		if next <= t {
			break
		}
		t = next
	}
	return m
}

// dispatch picks the next task for core c at time now and runs it until
// the next grid boundary.
func (k *Kernel) dispatch(c *cpu.Core, now sim.Time) {
	end := k.boundary(now)
	avoid := k.avoidMask(now, end)
	var skippedBefore uint64
	if k.tl != nil {
		skippedBefore = k.sched.Stats().SkippedCandidates
	}
	ent := k.sched.PickNext(c.ID, avoid)
	if ent == nil {
		// Idle until the next boundary.
		k.Stats.IdleQuanta++
		k.lastTask[c.ID] = nil
		k.eng.SchedulePAt(end, sim.Payload{Kind: sim.KindKernelDispatch,
			A: uint64(c.ID), B: end})
		return
	}
	k.Stats.Quanta++
	task := k.tasks[ent.TaskID]
	k.runStart[c.ID] = now
	k.lastTask[c.ID] = task
	if k.tl != nil {
		skipped := k.sched.Stats().SkippedCandidates - skippedBefore
		k.lastSkips[c.ID] = skipped
		if skipped > 0 {
			k.tl.Emit(timeline.Event{Ph: timeline.PhaseInstant, Ts: uint64(now),
				Pid: timeline.PidCPU, Tid: int32(c.ID), Name: "skip",
				Arg1Name: "skipped", Arg1: int64(skipped)})
		}
	}
	start := now
	if cost := k.cfg.OS.CtxSwitchCycles; cost > 0 {
		// Cap the charge at ~1.5% of a quantum so aggressive time
		// scaling (which shrinks quanta but not µs-scale costs) cannot
		// let switching overhead distort scheduling fairness.
		if lim := k.quantum >> 6; cost > lim && lim > 0 {
			cost = lim
		}
		start = now + sim.Time(cost)
		k.Stats.CtxSwitches++
		if start >= end {
			start = end - 1
		}
	}
	k.eng.SchedulePAt(start, sim.Payload{Kind: sim.KindKernelRunTask,
		A: uint64(c.ID), B: uint64(task.id), C: end})
}

// Exec dispatches the kernel's payload events.
func (k *Kernel) Exec(p sim.Payload) {
	switch p.Kind {
	case sim.KindKernelDispatch:
		k.dispatch(k.cores[p.A], p.B)
	case sim.KindKernelRunTask:
		k.cores[p.A].Run(k.tasks[p.B], p.C, k.onEnd)
	case sim.KindKernelWake:
		t := k.tasks[p.A]
		t.Sleeps++
		if min := k.sched.MinVruntime(int(p.B)); t.Ent.Vruntime < min {
			t.Ent.Vruntime = min
		}
		k.sched.Enqueue(int(p.B), t.Ent)
	default:
		panic("kernel: unexpected payload kind")
	}
}

// onQuantumEnd is the core's callback at quantum expiry: charge
// vruntime, re-enqueue (or put to sleep), balance, dispatch the next
// task.
func (k *Kernel) onQuantumEnd(c *cpu.Core, at sim.Time) {
	ran := uint64(at - k.runStart[c.ID])
	if t := k.lastTask[c.ID]; t != nil {
		if k.tl != nil {
			// The span starts at runStart, in the past; the only
			// other CPU-track event since dispatch is the skip
			// instant at the same timestamp, so per-track order in
			// the serialised file stays monotone.
			k.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
				Ts: uint64(k.runStart[c.ID]), Dur: ran,
				Pid: timeline.PidCPU, Tid: int32(c.ID), Name: t.Bench.Name,
				Arg1Name: "task", Arg1: int64(t.id),
				Arg2Name: "skipped", Arg2: int64(k.lastSkips[c.ID])})
		}
		k.sched.Put(t.Ent, ran)
		k.maybeSleep(t, at)
	}
	k.Stats.LoadBalances++
	k.sched.LoadBalance()
	k.dispatch(c, at)
}

// maybeSleep applies the task's sleep pattern: dequeue now, wake later
// with its vruntime clamped to the queue minimum so it neither
// monopolizes nor starves after waking (CFS wake placement).
func (k *Kernel) maybeSleep(t *Task, at sim.Time) {
	if t.SleepEveryQuanta == 0 {
		return
	}
	t.quantaSinceSleep++
	if t.quantaSinceSleep < t.SleepEveryQuanta {
		return
	}
	t.quantaSinceSleep = 0
	cpuID := t.Ent.CPU()
	k.sched.Dequeue(t.Ent)
	k.Stats.SleepEpisodes++
	wake := at + sim.Time(t.SleepForCycles)
	k.eng.SchedulePAt(wake, sim.Payload{Kind: sim.KindKernelWake,
		A: uint64(t.id), B: uint64(cpuID)})
}
