// Package sched implements the simulated OS task schedulers: the paper's
// round-robin baseline and a Completely Fair Scheduler model with
// per-CPU runqueues ordered by vruntime. The CFS picker
// implements the paper's refresh-aware pick_next_task (Algorithm 3),
// including the η fairness threshold and the Section 5.4.1 best-effort
// mode for tasks with data on every bank.
package sched

import (
	"refsched/internal/kernel/buddy"
	"refsched/internal/stats"
)

// Entity is a schedulable task as the scheduler sees it.
type Entity struct {
	TaskID   int
	Vruntime uint64
	// Weight is the CFS load weight (0 means nice-0, i.e. 1024);
	// vruntime advances inversely to it, so heavier tasks get more CPU.
	Weight uint64
	// Mask is the task's possible_banks_vector.
	Mask buddy.BankMask
	// Occupancy returns the fraction of the task's resident pages on a
	// global bank (best-effort scheduling input); may be nil.
	Occupancy func(globalBank int) float64

	cpu  int
	onRQ bool
}

// OnRunqueue reports whether the entity is currently enqueued.
func (e *Entity) OnRunqueue() bool { return e.onRQ }

// CPU returns the runqueue the entity last belonged to.
func (e *Entity) CPU() int { return e.cpu }

// Stats counts scheduling decisions.
type Stats struct {
	Picks uint64 `json:"picks"`
	// EligiblePicks picked a task whose mask excludes every avoided
	// bank (the refresh-aware success path).
	EligiblePicks uint64 `json:"eligible_picks"`
	// FallbackPicks hit the η threshold and took the leftmost task.
	FallbackPicks uint64 `json:"fallback_picks"`
	// BestEffortPicks chose the minimum-occupancy candidate.
	BestEffortPicks uint64 `json:"best_effort_picks"`
	// SkippedCandidates counts tasks passed over by Algorithm 3.
	SkippedCandidates uint64 `json:"skipped_candidates"`
	// Migrations counts load-balancer task moves.
	Migrations uint64 `json:"migrations"`
}

// Picker is the scheduling policy interface the kernel drives.
type Picker interface {
	// Enqueue makes e runnable on cpu's queue.
	Enqueue(cpu int, e *Entity)
	// Dequeue removes e (it must be enqueued).
	Dequeue(e *Entity)
	// PickNext selects and dequeues the next task for cpu. avoid is
	// the set of banks that will be refreshed during the upcoming
	// quantum (zero when refresh awareness is off or unsupported).
	PickNext(cpu int, avoid buddy.BankMask) *Entity
	// Put re-enqueues e on its cpu after it ran for ran cycles.
	Put(e *Entity, ran uint64)
	// NrRunning returns cpu's runnable count.
	NrRunning(cpu int) int
	// MinVruntime returns the smallest vruntime on cpu's queue (0 when
	// empty); wakers use it to place sleeping tasks fairly.
	MinVruntime(cpu int) uint64
	// LoadBalance equalizes queue lengths, returning migrations made.
	LoadBalance() int
	// Stats exposes decision counters.
	Stats() *Stats
	// SkipHistogram exposes the distribution of consecutive
	// candidates skipped per pick (bucket width 1): bucket 0 is a
	// clean leftmost pick, higher buckets show Algorithm 3 passing
	// over tasks, and mass at or beyond η is the fallback regime the
	// raw SkippedCandidates counter cannot distinguish.
	SkipHistogram() *stats.Histogram
	// State captures queue membership and counters for checkpointing.
	State() State
	// SetState restores a captured state, resolving serialized task
	// IDs to live entities.
	SetState(st State, resolve func(taskID int) *Entity)
}

// skipHistBuckets sizes the per-pick skip histograms: unit-width
// buckets comfortably covering the η values the paper sweeps (≤ 10)
// with headroom for experiments.
const skipHistBuckets = 16

// less orders entities by (vruntime, TaskID): the classic CFS key with a
// deterministic tie-break.
func less(a, b *Entity) bool {
	if a.Vruntime != b.Vruntime {
		return a.Vruntime < b.Vruntime
	}
	return a.TaskID < b.TaskID
}

// CFS is the Completely Fair Scheduler model.
type CFS struct {
	// queues holds each CPU's runnable entities sorted by less. Linux
	// keeps them in a red-black tree; Algorithm 3 needs only the order,
	// and a runqueue holds a handful of tasks, so a sorted slice serves.
	// An entity's vruntime changes only while it is off its queue.
	queues [][]*Entity
	// Eta is the fairness threshold η from Algorithm 3: the maximum
	// number of candidates examined before falling back to the
	// leftmost task. 1 disables refresh awareness.
	Eta int
	// BestEffort switches the η fallback from "leftmost task" to
	// "minimum occupancy on the avoided banks" (Section 5.4.1).
	BestEffort bool

	stats Stats
	skips *stats.Histogram
}

// NewCFS builds a CFS with ncpu runqueues.
func NewCFS(ncpu, eta int, bestEffort bool) *CFS {
	return &CFS{queues: make([][]*Entity, ncpu), Eta: eta, BestEffort: bestEffort,
		skips: stats.NewHistogram(1, skipHistBuckets)}
}

// Enqueue implements Picker: insert e at its sorted position.
func (s *CFS) Enqueue(cpu int, e *Entity) {
	e.cpu = cpu
	e.onRQ = true
	q := append(s.queues[cpu], nil)
	i := len(q) - 1
	for ; i > 0 && less(e, q[i-1]); i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	s.queues[cpu] = q
}

// Dequeue implements Picker.
func (s *CFS) Dequeue(e *Entity) {
	if !e.onRQ {
		return
	}
	s.dequeue(e)
}

// excludes reports whether e's possible-banks vector avoids every bank
// in avoid — i.e. e has no data on any bank being refreshed.
func excludes(e *Entity, avoid buddy.BankMask) bool {
	return e.Mask&avoid == 0
}

// PickNext implements Picker with Algorithm 3: walk the runqueue
// leftmost-first; pick the first task with no data on the banks being
// refreshed next quantum; after η candidates give up and take the
// leftmost (or the best-effort minimum-occupancy candidate).
func (s *CFS) PickNext(cpu int, avoid buddy.BankMask) *Entity {
	q := s.queues[cpu]
	if len(q) == 0 {
		return nil
	}
	s.stats.Picks++

	first := q[0]
	if avoid == 0 {
		s.skips.Add(0)
		s.dequeue(first)
		return first
	}

	var pick *Entity
	var bestOcc float64 = 2 // occupancy fractions are <= 1
	var best *Entity
	count := 0
	for _, e := range q {
		count++
		if excludes(e, avoid) {
			pick = e
			break
		}
		if s.BestEffort && e.Occupancy != nil {
			occ := 0.0
			for g := 0; g < 64; g++ {
				if avoid.Has(g) {
					occ += e.Occupancy(g)
				}
			}
			if occ < bestOcc {
				bestOcc, best = occ, e
			}
		}
		if count >= s.Eta {
			break
		}
	}

	switch {
	case pick != nil:
		s.stats.EligiblePicks++
		s.stats.SkippedCandidates += uint64(count - 1)
		s.skips.Add(uint64(count - 1))
	case s.BestEffort && best != nil:
		pick = best
		s.stats.BestEffortPicks++
		s.stats.SkippedCandidates += uint64(count - 1)
		s.skips.Add(uint64(count - 1))
	default:
		pick = first
		s.stats.FallbackPicks++
		// η exhausted: every examined candidate was passed over
		// before the forced leftmost pick. The raw counter leaves
		// these out (the pick is not refresh-aware), but the
		// histogram records them — this is exactly the η-exhaustion
		// mass the distribution exists to expose.
		s.skips.Add(uint64(count))
	}
	s.dequeue(pick)
	return pick
}

// dequeue removes the enqueued entity e from its runqueue.
func (s *CFS) dequeue(e *Entity) {
	q := s.queues[e.cpu]
	for i, x := range q {
		if x == e {
			s.queues[e.cpu] = append(q[:i], q[i+1:]...)
			break
		}
	}
	e.onRQ = false
}

// Put implements Picker: charge weighted vruntime and re-enqueue.
func (s *CFS) Put(e *Entity, ran uint64) {
	e.Vruntime += chargeVruntime(e, ran)
	s.Enqueue(e.cpu, e)
}

// NrRunning implements Picker.
func (s *CFS) NrRunning(cpu int) int { return len(s.queues[cpu]) }

// MinVruntime implements Picker.
func (s *CFS) MinVruntime(cpu int) uint64 {
	if q := s.queues[cpu]; len(q) > 0 {
		return q[0].Vruntime
	}
	return 0
}

// LoadBalance implements Picker: repeatedly move the rightmost (least
// entitled) entity from the longest to the shortest queue while they
// differ by more than one.
func (s *CFS) LoadBalance() int {
	moved := 0
	for {
		lo, hi := 0, 0
		for i, q := range s.queues {
			if len(q) < len(s.queues[lo]) {
				lo = i
			}
			if len(q) > len(s.queues[hi]) {
				hi = i
			}
		}
		if len(s.queues[hi])-len(s.queues[lo]) <= 1 {
			return moved
		}
		q := s.queues[hi]
		e := q[len(q)-1]
		s.dequeue(e)
		s.Enqueue(lo, e)
		s.stats.Migrations++
		moved++
	}
}

// Stats implements Picker.
func (s *CFS) Stats() *Stats { return &s.stats }

// SkipHistogram implements Picker.
func (s *CFS) SkipHistogram() *stats.Histogram { return s.skips }

// RR is the paper's baseline scheduler: per-CPU FIFO round-robin with a
// fixed time slice, refresh-oblivious.
type RR struct {
	queues [][]*Entity
	stats  Stats
	skips  *stats.Histogram
}

// NewRR builds a round-robin scheduler with ncpu queues.
func NewRR(ncpu int) *RR {
	return &RR{queues: make([][]*Entity, ncpu),
		skips: stats.NewHistogram(1, skipHistBuckets)}
}

// Enqueue implements Picker.
func (s *RR) Enqueue(cpu int, e *Entity) {
	e.cpu = cpu
	e.onRQ = true
	s.queues[cpu] = append(s.queues[cpu], e)
}

// Dequeue implements Picker.
func (s *RR) Dequeue(e *Entity) {
	if !e.onRQ {
		return
	}
	q := s.queues[e.cpu]
	for i, x := range q {
		if x == e {
			s.queues[e.cpu] = append(q[:i], q[i+1:]...)
			break
		}
	}
	e.onRQ = false
}

// PickNext implements Picker, ignoring avoid (the baseline is
// refresh-oblivious).
func (s *RR) PickNext(cpu int, _ buddy.BankMask) *Entity {
	q := s.queues[cpu]
	if len(q) == 0 {
		return nil
	}
	s.stats.Picks++
	s.skips.Add(0) // the baseline never passes a task over
	e := q[0]
	s.queues[cpu] = q[1:]
	e.onRQ = false
	return e
}

// Put implements Picker.
func (s *RR) Put(e *Entity, ran uint64) {
	e.Vruntime += ran
	s.Enqueue(e.cpu, e)
}

// NrRunning implements Picker.
func (s *RR) NrRunning(cpu int) int { return len(s.queues[cpu]) }

// MinVruntime implements Picker (round-robin ignores vruntime).
func (s *RR) MinVruntime(int) uint64 { return 0 }

// LoadBalance implements Picker.
func (s *RR) LoadBalance() int {
	moved := 0
	for {
		lo, hi := 0, 0
		for i, q := range s.queues {
			if len(q) < len(s.queues[lo]) {
				lo = i
			}
			if len(q) > len(s.queues[hi]) {
				hi = i
			}
		}
		if len(s.queues[hi])-len(s.queues[lo]) <= 1 {
			return moved
		}
		q := s.queues[hi]
		e := q[len(q)-1]
		s.queues[hi] = q[:len(q)-1]
		e.cpu = lo
		s.queues[lo] = append(s.queues[lo], e)
		s.stats.Migrations++
		moved++
	}
}

// Stats implements Picker.
func (s *RR) Stats() *Stats { return &s.stats }

// SkipHistogram implements Picker.
func (s *RR) SkipHistogram() *stats.Histogram { return s.skips }
