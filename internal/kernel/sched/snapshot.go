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

// taskIDs lists each queue's task IDs in queue order.
func taskIDs(queues [][]*Entity) [][]int {
	per := make([][]int, len(queues))
	for i, q := range queues {
		for _, e := range q {
			per[i] = append(per[i], e.TaskID)
		}
	}
	return per
}

// State implements Picker.
func (s *CFS) State() State {
	return State{PerCPU: taskIDs(s.queues), Stats: s.stats, Skips: s.skips.State()}
}

// SetState implements Picker: rebuild each runqueue by re-inserting the
// resolved entities in serialized order.
func (s *CFS) SetState(st State, resolve func(taskID int) *Entity) {
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

// State implements Picker.
func (s *RR) State() State {
	return State{PerCPU: taskIDs(s.queues), Stats: s.stats, Skips: s.skips.State()}
}

// SetState implements Picker.
func (s *RR) SetState(st State, resolve func(taskID int) *Entity) {
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
