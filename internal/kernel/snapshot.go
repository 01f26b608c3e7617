package kernel

import (
	"fmt"

	"refsched/internal/cpu"
	"refsched/internal/kernel/buddy"
	"refsched/internal/kernel/sched"
	"refsched/internal/kernel/vm"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// TaskState is the serializable state of one task: scheduling entity,
// sleep pattern progress, pushed-back segment, stats, workload cursor,
// and page table.
type TaskState struct {
	Vruntime uint64
	Weight   uint64
	Mask     buddy.BankMask
	// CPU is the runqueue the task last belonged to (meaningful for
	// running and sleeping tasks, which are off-queue at checkpoint).
	CPU int

	LastAllocedBank  int
	FallbackPages    uint64
	SleepEveryQuanta uint64
	SleepForCycles   uint64
	QuantaSinceSleep uint64
	Sleeps           uint64

	Pushed  bool
	PInstrs uint64
	PAcc    workload.Access

	Stats cpu.TaskStats
	Gen   workload.State
	VM    vm.State
}

// State is the serializable state of the kernel: every task, the
// scheduler queues, dispatch bookkeeping, and the two allocator layers.
type State struct {
	Tasks    []TaskState
	RunStart []sim.Time
	// LastTask holds task id + 1 per core; 0 marks an idle core.
	LastTask []int

	Sched     sched.State
	Stats     Stats
	Buddy     buddy.State
	Partition buddy.PartitionState
}

// State captures the kernel for checkpointing. It fails when a task's
// workload generator does not implement workload.Stateful (user-defined
// generators must opt in before a system containing them can snapshot).
func (k *Kernel) State() (State, error) {
	st := State{
		RunStart:  append([]sim.Time(nil), k.runStart...),
		LastTask:  make([]int, len(k.lastTask)),
		Sched:     k.sched.State(),
		Stats:     k.Stats,
		Buddy:     k.alloc.Buddy().State(),
		Partition: k.alloc.State(),
	}
	for i, t := range k.lastTask {
		if t != nil {
			st.LastTask[i] = t.id + 1
		}
	}
	for _, t := range k.tasks {
		gen, ok := t.gen.(workload.Stateful)
		if !ok {
			return State{}, fmt.Errorf("kernel: generator for task %d (%s) is not checkpointable", t.id, t.Bench.Name)
		}
		st.Tasks = append(st.Tasks, TaskState{
			Vruntime:         t.Ent.Vruntime,
			Weight:           t.Ent.Weight,
			Mask:             t.Ent.Mask,
			CPU:              t.Ent.CPU(),
			LastAllocedBank:  t.lastAllocedBank,
			FallbackPages:    t.FallbackPages,
			SleepEveryQuanta: t.SleepEveryQuanta,
			SleepForCycles:   t.SleepForCycles,
			QuantaSinceSleep: t.quantaSinceSleep,
			Sleeps:           t.Sleeps,
			Pushed:           t.pushed,
			PInstrs:          t.pInstrs,
			PAcc:             t.pAcc,
			Stats:            t.stats,
			Gen:              gen.State(),
			VM:               t.AS.State(),
		})
	}
	return st, nil
}

// SetState restores a captured kernel state. The kernel must have been
// rebuilt with the same configuration, task list, and generators; this
// overlays the mutable state on top.
func (k *Kernel) SetState(st State) error {
	if len(st.Tasks) != len(k.tasks) {
		return fmt.Errorf("kernel: restoring %d tasks into a kernel with %d", len(st.Tasks), len(k.tasks))
	}
	for i, ts := range st.Tasks {
		t := k.tasks[i]
		t.Ent.Vruntime = ts.Vruntime
		t.Ent.Weight = ts.Weight
		t.Ent.Mask = ts.Mask
		t.Ent.Place(ts.CPU)
		t.lastAllocedBank = ts.LastAllocedBank
		t.FallbackPages = ts.FallbackPages
		t.SleepEveryQuanta = ts.SleepEveryQuanta
		t.SleepForCycles = ts.SleepForCycles
		t.quantaSinceSleep = ts.QuantaSinceSleep
		t.Sleeps = ts.Sleeps
		t.pushed = ts.Pushed
		t.pInstrs = ts.PInstrs
		t.pAcc = ts.PAcc
		t.stats = ts.Stats
		gen, ok := t.gen.(workload.Stateful)
		if !ok {
			return fmt.Errorf("kernel: generator for task %d (%s) is not checkpointable", t.id, t.Bench.Name)
		}
		gen.SetState(ts.Gen)
		t.AS.SetState(ts.VM)
	}
	// Queue re-insertion re-Places every enqueued entity; the loop above
	// already placed the off-queue (running or sleeping) ones.
	k.sched.SetState(st.Sched, func(id int) *sched.Entity { return k.tasks[id].Ent })
	copy(k.runStart, st.RunStart)
	for i, id := range st.LastTask {
		if id == 0 {
			k.lastTask[i] = nil
		} else {
			k.lastTask[i] = k.tasks[id-1]
		}
	}
	k.Stats = st.Stats
	k.alloc.Buddy().SetState(st.Buddy)
	k.alloc.SetState(st.Partition)
	return nil
}

// QuantumEndHandler exposes the kernel's quantum-expiry callback so the
// restore path can re-install it on cores whose quantum was in flight
// at checkpoint time.
func (k *Kernel) QuantumEndHandler() func(*cpu.Core, sim.Time) {
	return k.onEnd
}
