// Package sched implements the simulated OS task scheduler: per-CPU
// runqueues under one of two policies, the paper's round-robin baseline
// and a Completely Fair Scheduler model ordered by vruntime. The CFS
// policy implements the paper's refresh-aware pick_next_task (Algorithm
// 3), including the η fairness threshold and the Section 5.4.1
// best-effort mode for tasks with data on every bank.
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

// Scheduler keeps one runqueue per CPU under its policy, round-robin or
// CFS. The policy decides only where Enqueue puts an entity, which one
// PickNext takes and what MinVruntime returns; dequeueing, charging,
// load balancing, counters and checkpoints are the same under both.
type Scheduler struct {
	// queues holds each CPU's runnable entities in queue order: FIFO
	// under round-robin, sorted by less under CFS. Linux keeps CFS's
	// queue in a red-black tree; Algorithm 3 needs only the order, and
	// a runqueue holds a handful of tasks, so a sorted slice serves. An
	// entity's vruntime changes only while it is off its queue.
	queues [][]*Entity
	// cfs selects the CFS policy; otherwise the scheduler is the
	// paper's refresh-oblivious round-robin baseline.
	cfs bool
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

// NewCFS builds a CFS scheduler with ncpu runqueues ordered by vruntime
// and Algorithm 3's refresh-aware pick.
func NewCFS(ncpu, eta int, bestEffort bool) *Scheduler {
	return &Scheduler{queues: make([][]*Entity, ncpu), cfs: true, Eta: eta, BestEffort: bestEffort,
		skips: stats.NewHistogram(1, skipHistBuckets)}
}

// NewRR builds the paper's baseline scheduler: ncpu FIFO round-robin
// queues with a fixed time slice, refresh-oblivious.
func NewRR(ncpu int) *Scheduler {
	return &Scheduler{queues: make([][]*Entity, ncpu),
		skips: stats.NewHistogram(1, skipHistBuckets)}
}

// Enqueue makes e runnable on cpu's queue: at its sorted position under
// CFS, at the tail under round-robin.
func (s *Scheduler) Enqueue(cpu int, e *Entity) {
	e.cpu = cpu
	e.onRQ = true
	q := append(s.queues[cpu], e)
	if s.cfs {
		i := len(q) - 1
		for ; i > 0 && less(e, q[i-1]); i-- {
			q[i] = q[i-1]
		}
		q[i] = e
	}
	s.queues[cpu] = q
}

// Dequeue removes e from its runqueue; it does nothing when e is not
// enqueued.
func (s *Scheduler) Dequeue(e *Entity) {
	if !e.onRQ {
		return
	}
	// Shift rather than reslice, so the queue keeps its capacity and
	// Enqueue stops allocating.
	q := s.queues[e.cpu]
	for i, x := range q {
		if x == e {
			s.queues[e.cpu] = append(q[:i], q[i+1:]...)
			break
		}
	}
	e.onRQ = false
}

// excludes reports whether e's possible-banks vector avoids every bank
// in avoid — i.e. e has no data on any bank being refreshed.
func excludes(e *Entity, avoid buddy.BankMask) bool {
	return e.Mask&avoid == 0
}

// PickNext selects and dequeues the next task for cpu. avoid is the set
// of banks that will be refreshed during the upcoming quantum (zero
// when refresh awareness is off or unsupported). Round-robin takes the
// head and ignores avoid. CFS runs Algorithm 3: walk the runqueue
// leftmost-first; pick the first task with no data on the banks being
// refreshed next quantum; after η candidates give up and take the
// leftmost (or the best-effort minimum-occupancy candidate).
func (s *Scheduler) PickNext(cpu int, avoid buddy.BankMask) *Entity {
	q := s.queues[cpu]
	if len(q) == 0 {
		return nil
	}
	s.stats.Picks++

	first := q[0]
	if !s.cfs || avoid == 0 {
		s.skips.Add(0)
		s.Dequeue(first)
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
	s.Dequeue(pick)
	return pick
}

// Put re-enqueues e on its cpu after it ran for ran cycles, charging
// its weighted vruntime. Round-robin never reads vruntime.
func (s *Scheduler) Put(e *Entity, ran uint64) {
	e.Vruntime += chargeVruntime(e, ran)
	s.Enqueue(e.cpu, e)
}

// MinVruntime returns the smallest vruntime on cpu's queue, 0 when it
// is empty or under round-robin; wakers use it to place sleeping tasks
// fairly.
func (s *Scheduler) MinVruntime(cpu int) uint64 {
	if q := s.queues[cpu]; s.cfs && len(q) > 0 {
		return q[0].Vruntime
	}
	return 0
}

// LoadBalance equalizes queue lengths, returning the migrations made:
// it repeatedly moves the last (under CFS, least entitled) entity of
// the longest queue to the shortest while they differ by more than
// one.
func (s *Scheduler) LoadBalance() int {
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
		s.Dequeue(e)
		s.Enqueue(lo, e)
		s.stats.Migrations++
		moved++
	}
}

// Stats exposes the decision counters.
func (s *Scheduler) Stats() *Stats { return &s.stats }

// SkipHistogram exposes the distribution of consecutive candidates
// skipped per pick (bucket width 1): bucket 0 is a clean leftmost pick
// (every round-robin pick), higher buckets show Algorithm 3 passing
// over tasks, and mass at or beyond η is the fallback regime the raw
// SkippedCandidates counter cannot distinguish.
func (s *Scheduler) SkipHistogram() *stats.Histogram { return s.skips }
