package cpu

import (
	"refsched/internal/cache"
	"refsched/internal/sim"
)

// MissState is the serializable form of one outstanding LLC miss.
type MissState struct {
	ID           uint64
	Completed    bool
	Store        bool
	CompleteAt   sim.Time
	InstrAtIssue uint64
}

// CoreState is one core's full execution state at an event-quiescent
// point. The task binding is recorded by id; the restorer resolves it
// against the kernel's task table and passes the object back in.
type CoreState struct {
	TaskID     int // -1 when idle
	Epoch      uint64
	LocalTime  sim.Time
	QuantumEnd sim.Time
	StartTime  sim.Time
	Instrs     uint64
	CPIAccum   uint64

	Outstanding []MissState
	MissSeq     uint64
	Waiting     bool
	Barrier     bool
	Idle        bool

	Caches cache.HierarchyState
}

// State captures the core for a checkpoint.
func (c *Core) State() CoreState {
	st := CoreState{
		TaskID:     -1,
		Epoch:      c.epoch,
		LocalTime:  c.localTime,
		QuantumEnd: c.quantumEnd,
		StartTime:  c.startTime,
		Instrs:     c.instrs,
		CPIAccum:   c.cpiAccum,
		MissSeq:    c.missSeq,
		Waiting:    c.waiting,
		Barrier:    c.barrier,
		Idle:       c.Idle,
		Caches:     c.Hier.State(),
	}
	if c.task != nil {
		st.TaskID = c.task.ID()
	}
	st.Outstanding = make([]MissState, len(c.outstanding))
	for i, m := range c.outstanding {
		st.Outstanding[i] = MissState{ID: m.id, Completed: m.completed,
			Store: m.store, CompleteAt: m.completeAt, InstrAtIssue: m.instrAtIssue}
	}
	return st
}

// RestoreState overlays a checkpoint onto a freshly built core. task
// must be the task st.TaskID names (nil when the core was idle), and
// onEnd is the scheduler's quantum-end callback, re-installed
// unconditionally: it is only ever consulted while a quantum is live or
// a deferred quantum-end event is pending, and the next Run overwrites
// it, so installing it on a quiescent core is inert.
func (c *Core) RestoreState(st CoreState, task Task, onEnd func(c *Core, at sim.Time)) {
	c.task = task
	c.epoch = st.Epoch
	c.localTime = st.LocalTime
	c.quantumEnd = st.QuantumEnd
	c.startTime = st.StartTime
	c.instrs = st.Instrs
	c.cpiAccum = st.CPIAccum
	c.missSeq = st.MissSeq
	c.waiting = st.Waiting
	c.barrier = st.Barrier
	c.Idle = st.Idle
	c.onQuantumEnd = onEnd
	c.outstanding = c.outstanding[:0]
	for _, m := range st.Outstanding {
		c.outstanding = append(c.outstanding, miss{id: m.ID,
			completed: m.Completed, store: m.Store,
			completeAt: m.CompleteAt, instrAtIssue: m.InstrAtIssue})
	}
	c.Hier.SetState(st.Caches)
}
