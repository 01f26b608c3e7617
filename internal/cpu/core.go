// Package cpu models the processor cores. Each core is an
// "out-of-order-lite" model: instructions retire at a base CPI, on-chip
// cache hits are charged their hit latency, and LLC misses go to the
// memory controller. The core may overlap up to MLP outstanding misses
// and run ahead up to ROB instructions past the oldest incomplete miss;
// dependent accesses (pointer chases) serialize behind all outstanding
// misses. Time a core spends blocked behind misses is exactly where DRAM
// refresh interference turns into lost IPC.
//
// For efficiency the core executes cache hits synchronously, ahead of the
// global clock (its caches are private, so nothing global can perturb
// them); it synchronizes with the discrete-event engine only to submit
// LLC misses at their correct issue times and to block on completions.
// Run-ahead is always clipped at the quantum boundary, so scheduling
// decisions are never bypassed.
package cpu

import (
	"refsched/internal/cache"
	"refsched/internal/mc"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// TaskStats accumulates per-task performance counters.
type TaskStats struct {
	Instructions uint64
	CPUCycles    uint64 // cycles the task held a core
	MemStall     uint64 // cycles blocked waiting for DRAM
	LLCMisses    uint64
	PageFaults   uint64
	Quanta       uint64
}

// IPC returns committed instructions per cycle-on-CPU.
func (s *TaskStats) IPC() float64 {
	if s.CPUCycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.CPUCycles)
}

// MPKI returns LLC misses per kilo-instruction.
func (s *TaskStats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(s.Instructions) * 1000
}

// Task is the execution context a core runs: an instruction/access
// stream, address translation, and a resume buffer so preemption can
// happen mid-segment.
type Task interface {
	// ID returns the unique task id.
	ID() int
	// Next yields the next stream segment: instrs instructions of pure
	// compute followed by one memory access. Streams are endless.
	Next() (instrs uint64, acc workload.Access)
	// PushBack returns a partially executed segment so the next
	// quantum resumes exactly where this one stopped.
	PushBack(instrs uint64, acc workload.Access)
	// Translate maps a virtual address to physical, returning any
	// page-fault penalty in cycles.
	Translate(vaddr uint64) (paddr uint64, penalty uint64)
	// Stats exposes the mutable counter block for this task.
	Stats() *TaskStats
}

// Memory abstracts the request path to the memory controller(s). The
// WhenSpace registrations hand over the rejected request itself (not a
// retry callback) so controller back-pressure state is serializable.
type Memory interface {
	// NewRequest returns a cleared request for the line at addr with its
	// DRAM coordinates decoded. The memory system reuses the request
	// once it has issued it, so the caller must not keep it after
	// submitting it.
	NewRequest(addr uint64) *mc.Request
	SubmitRead(r *mc.Request) bool
	WhenReadSpace(channel int, r *mc.Request)
	SubmitWrite(r *mc.Request) bool
	WhenWriteSpace(channel int, r *mc.Request)
}

// miss tracks one outstanding LLC miss.
type miss struct {
	// id is the core-local handle completion events carry back (see
	// MissComplete); ids are monotone per core and never reused.
	id           uint64
	completed    bool
	store        bool // read-for-ownership: occupies an MSHR but not the ROB window
	completeAt   sim.Time
	instrAtIssue uint64
}

// Core is one processor core.
type Core struct {
	ID   int
	eng  *sim.Engine
	mem  Memory
	Hier *cache.Hierarchy

	baseCPIx1024 uint64 // fixed-point base CPI (cycles<<10 per instruction)
	mlp          int
	rob          uint64

	task       Task
	epoch      uint64 // invalidates stale callbacks across context switches
	localTime  sim.Time
	quantumEnd sim.Time
	startTime  sim.Time
	instrs     uint64 // retired since task start (ROB run-ahead bookkeeping)
	cpiAccum   uint64 // fixed-point fractional-cycle accumulator

	outstanding []miss
	missSeq     uint64 // last issued miss id
	waiting     bool
	barrier     bool // waiting for ALL outstanding misses (dependent access)

	onQuantumEnd func(c *Core, at sim.Time)

	// Idle reports whether the core currently has no task.
	Idle bool
}

// NewCore builds a core bound to an engine, memory path and cache stack.
func NewCore(id int, eng *sim.Engine, mem Memory, hier *cache.Hierarchy, baseCPI float64, mlp, rob int) *Core {
	if mlp < 1 {
		mlp = 1
	}
	return &Core{
		ID:           id,
		eng:          eng,
		mem:          mem,
		Hier:         hier,
		baseCPIx1024: uint64(baseCPI * 1024),
		mlp:          mlp,
		rob:          uint64(rob),
		Idle:         true,
	}
}

// Run starts task on the core until quantumEnd; onEnd is invoked at the
// actual end time (which may overshoot the boundary if the core was
// blocked on a miss when the quantum expired) so the scheduler can pick
// the next task. Run must be called at the intended start time.
func (c *Core) Run(task Task, quantumEnd sim.Time, onEnd func(c *Core, at sim.Time)) {
	c.epoch++
	c.task = task
	c.quantumEnd = quantumEnd
	c.onQuantumEnd = onEnd
	c.localTime = c.eng.Now()
	c.startTime = c.localTime
	c.instrs = 0
	c.cpiAccum = 0
	c.outstanding = c.outstanding[:0]
	c.waiting = false
	c.barrier = false
	c.Idle = false
	task.Stats().Quanta++
	c.loop()
}

// loop executes stream segments until the quantum expires or the core
// blocks. It runs within a single engine event.
func (c *Core) loop() {
	for !c.waiting {
		if c.localTime >= c.quantumEnd {
			c.finishQuantum()
			return
		}
		instrs, acc := c.task.Next()
		if !c.executeSegment(instrs, acc) {
			return
		}
	}
}

// advanceInstrs charges instruction execution time in fixed point.
func (c *Core) advanceInstrs(n uint64) {
	c.cpiAccum += n * c.baseCPIx1024
	c.localTime += sim.Time(c.cpiAccum >> 10)
	c.cpiAccum &= 1023
	c.instrs += n
	c.task.Stats().Instructions += n
}

// executeSegment runs one (compute, access) segment; it returns false
// when the core blocked or the quantum ended partway.
func (c *Core) executeSegment(instrs uint64, acc workload.Access) bool {
	// Clip the compute stretch at the quantum boundary so run-ahead
	// never crosses a scheduling decision.
	if c.baseCPIx1024 > 0 {
		budget := (uint64(c.quantumEnd-c.localTime)<<10 - c.cpiAccum + c.baseCPIx1024 - 1) / c.baseCPIx1024
		if instrs > budget {
			c.advanceInstrs(budget)
			c.task.PushBack(instrs-budget, acc)
			c.finishQuantum()
			return false
		}
	}
	c.advanceInstrs(instrs)

	// A dependent access consumes the value of an in-flight load: it
	// cannot issue until every outstanding miss has drained.
	if acc.Dependent {
		c.drainCompleted()
		if len(c.outstanding) > 0 {
			c.task.PushBack(0, acc)
			c.waiting = true
			c.barrier = true
			return false
		}
	}

	c.performAccess(acc)
	return !c.waiting
}

// performAccess issues one memory access against the cache hierarchy.
func (c *Core) performAccess(acc workload.Access) {
	paddr, penalty := c.task.Translate(acc.VAddr)
	if penalty > 0 {
		c.localTime += sim.Time(penalty)
		c.task.Stats().PageFaults++
	}
	out := c.Hier.Access(paddr, acc.Write)
	for _, wb := range out.Writebacks {
		c.submitWriteback(wb)
	}
	if out.Level != cache.LevelMemory {
		if out.Level == cache.LevelL2 {
			c.localTime += sim.Time(out.HitCycles)
		}
		return
	}

	// LLC miss: goes off-chip. Stores allocate via a read-for-ownership
	// and never block retirement directly; loads block via the
	// dependence, MLP and ROB limits.
	c.task.Stats().LLCMisses++
	c.localTime += sim.Time(out.HitCycles)
	c.missSeq++
	c.outstanding = append(c.outstanding, miss{id: c.missSeq, instrAtIssue: c.instrs, store: acc.Write})
	c.submitRead(out.MissLineAddr, c.missSeq)

	if acc.Dependent {
		c.waiting = true
		c.barrier = true
		return
	}
	c.drainCompleted()
	if !c.limitsOK() {
		c.waiting = true
	}
}

// drainCompleted retires completed misses from the front in program
// order, charging stall time when their completion is in the future.
func (c *Core) drainCompleted() {
	n := 0
	for n < len(c.outstanding) && c.outstanding[n].completed {
		m := &c.outstanding[n]
		if m.completeAt > c.localTime {
			c.task.Stats().MemStall += uint64(m.completeAt - c.localTime)
			c.localTime = m.completeAt
		}
		n++
	}
	if n > 0 {
		c.outstanding = append(c.outstanding[:0], c.outstanding[n:]...)
	}
}

// limitsOK reports whether MLP and ROB run-ahead limits permit issuing
// more work. The ROB window is charged against the oldest incomplete
// *load*: store misses drain through the store buffer and do not block
// retirement.
func (c *Core) limitsOK() bool {
	if len(c.outstanding) >= c.mlp {
		return false
	}
	for i := range c.outstanding {
		if m := &c.outstanding[i]; !m.store && !m.completed {
			return c.instrs-m.instrAtIssue < c.rob
		}
	}
	return true
}

// MissComplete is the memory-system completion notification: the miss
// with the given id finished its DRAM read. epoch is the core epoch
// captured at issue; a mismatch means the issuing quantum already ended
// and the core must not be resumed on the stale completion (the miss is
// still marked complete — the old closure-based callback mutated the
// struct unconditionally too). An unknown id means the issuing quantum's
// miss slots were already recycled by a later Run; the notification is
// then a no-op, exactly as the old callback was against an unreachable
// miss struct.
func (c *Core) MissComplete(id, epoch uint64) {
	var m *miss
	for i := range c.outstanding {
		if c.outstanding[i].id == id {
			m = &c.outstanding[i]
			break
		}
	}
	if m == nil {
		return
	}
	m.completed = true
	m.completeAt = c.eng.Now()
	if epoch != c.epoch || !c.waiting {
		return
	}
	c.drainCompleted()
	if c.barrier {
		if len(c.outstanding) > 0 {
			return
		}
		c.barrier = false
	} else if !c.limitsOK() {
		return
	}
	c.waiting = false
	c.loop()
}

// submitRead schedules miss id's DRAM read at the core's local time.
// The payload captures everything the submission needs (address, task,
// miss id, epoch) at schedule time: the core runs ahead, so by the time
// the event fires the task binding may already have changed.
func (c *Core) submitRead(lineAddr, id uint64) {
	at := c.localTime
	if now := c.eng.Now(); at < now {
		at = now
	}
	c.eng.SchedulePAt(at, sim.Payload{Kind: sim.KindCPUSubmitRead,
		A: uint64(c.ID), B: lineAddr, C: id, D: c.epoch,
		E: uint64(int64(c.task.ID()) + 1)})
}

// FireSubmitRead materializes a deferred read submission. The request
// is rebuilt from the payload words (decoding is pure, so re-decoding
// the address is exact); a full queue parks the request on the
// controller's waiter list for automatic resubmission.
func (c *Core) FireSubmitRead(p sim.Payload) {
	req := c.mem.NewRequest(p.B)
	req.TaskID = int(int64(p.E) - 1)
	req.Owner = mc.Owner{Valid: true, Core: c.ID, Miss: p.C, Epoch: p.D}
	if !c.mem.SubmitRead(req) {
		c.mem.WhenReadSpace(req.Coord.Channel, req)
	}
}

// submitWriteback schedules a posted write at the core's local time.
func (c *Core) submitWriteback(lineAddr uint64) {
	at := c.localTime
	if now := c.eng.Now(); at < now {
		at = now
	}
	c.eng.SchedulePAt(at, sim.Payload{Kind: sim.KindCPUSubmitWrite,
		A: uint64(c.ID), B: lineAddr, E: uint64(int64(c.task.ID()) + 1)})
}

// FireSubmitWrite materializes a deferred posted-write submission.
func (c *Core) FireSubmitWrite(p sim.Payload) {
	req := c.mem.NewRequest(p.B)
	req.TaskID = int(int64(p.E) - 1)
	if !c.mem.SubmitWrite(req) {
		c.mem.WhenWriteSpace(req.Coord.Channel, req)
	}
}

// Exec dispatches this core's payload events.
func (c *Core) Exec(p sim.Payload) {
	switch p.Kind {
	case sim.KindCPUSubmitRead:
		c.FireSubmitRead(p)
	case sim.KindCPUSubmitWrite:
		c.FireSubmitWrite(p)
	case sim.KindCPUQuantumEnd:
		c.FireQuantumEnd(p.B)
	default:
		panic("cpu: unexpected payload kind")
	}
}

// finishQuantum accounts the quantum and hands control to the scheduler.
func (c *Core) finishQuantum() {
	end := c.localTime
	c.task.Stats().CPUCycles += uint64(end - c.startTime)
	c.task = nil
	c.Idle = true
	c.waiting = false
	c.barrier = false
	c.epoch++
	onEnd := c.onQuantumEnd
	if onEnd == nil {
		return
	}
	if end <= c.eng.Now() {
		c.onQuantumEnd = nil
		onEnd(c, c.eng.Now())
		return
	}
	// Deferred quantum end: the handler stays installed until the event
	// fires (the scheduler cannot re-Run this core before its own
	// quantum-end notification, so the field cannot be clobbered).
	c.eng.SchedulePAt(end, sim.Payload{Kind: sim.KindCPUQuantumEnd,
		A: uint64(c.ID), B: end})
}

// FireQuantumEnd delivers a deferred quantum-end notification scheduled
// by finishQuantum.
func (c *Core) FireQuantumEnd(at sim.Time) {
	onEnd := c.onQuantumEnd
	c.onQuantumEnd = nil
	if onEnd != nil {
		onEnd(c, at)
	}
}
