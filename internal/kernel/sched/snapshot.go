package sched

import "refsched/internal/stats"

// State is the serializable state of a scheduler: per-CPU queue
// membership in queue order (FIFO order for round-robin; ascending
// (vruntime, task) order for CFS, where re-insertion reproduces the
// same order), plus decision counters. Entity fields
// themselves (vruntime, weight, mask) are owned and serialized by the
// kernel's task state.
type State struct {
	PerCPU [][]int
	Stats  Stats
	Skips  stats.HistogramState
}

// Place records the runqueue an off-queue entity last belonged to.
// Checkpoint restore uses it for running or sleeping tasks, which are
// dequeued and therefore not re-placed by State restore.
func (e *Entity) Place(cpu int) { e.cpu = cpu }

// State captures queue membership and counters for checkpointing.
func (s *Scheduler) State() State {
	per := make([][]int, len(s.queues))
	for i, q := range s.queues {
		for _, e := range q {
			per[i] = append(per[i], e.TaskID)
		}
	}
	return State{PerCPU: per, Stats: s.stats, Skips: s.skips.State()}
}

// SetState restores a captured state, rebuilding each runqueue by
// re-enqueueing the entities resolve returns for the serialized task
// IDs, in serialized order.
func (s *Scheduler) SetState(st State, resolve func(taskID int) *Entity) {
	for i := range s.queues {
		s.queues[i] = nil
	}
	for cpu, ids := range st.PerCPU {
		for _, id := range ids {
			s.Enqueue(cpu, resolve(id))
		}
	}
	s.stats = st.Stats
	s.skips.SetState(st.Skips)
}
