package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"refsched/internal/kernel/buddy"
)

// refQueues is the property test's reference: each runqueue is a set of
// entities, put in queue order whenever it is read — (vruntime, task id)
// order for CFS, arrival order for round-robin (fifo) — and every
// decision is made over that ordered list. It counts its decisions as
// the scheduler's Stats do, and sums the skips each pick records.
type refQueues struct {
	queues     [][]*Entity
	fifo       bool
	eta        int
	bestEffort bool

	stats   Stats
	skipSum uint64
}

// ordered returns cpu's queue in queue order.
func (r *refQueues) ordered(cpu int) []*Entity {
	q := append([]*Entity(nil), r.queues[cpu]...)
	if !r.fifo {
		sort.Slice(q, func(i, j int) bool {
			if q[i].Vruntime != q[j].Vruntime {
				return q[i].Vruntime < q[j].Vruntime
			}
			return q[i].TaskID < q[j].TaskID
		})
	}
	return q
}

func (r *refQueues) remove(cpu int, e *Entity) {
	for i, x := range r.queues[cpu] {
		if x == e {
			r.queues[cpu] = append(r.queues[cpu][:i], r.queues[cpu][i+1:]...)
			return
		}
	}
}

// pick takes the head under round-robin, whatever avoid is. Under CFS it
// is Algorithm 3 over the sorted queue: the first of at most η
// candidates with no data on an avoided bank; failing that, the
// minimum-occupancy candidate in best-effort mode, else the leftmost.
func (r *refQueues) pick(cpu int, avoid buddy.BankMask) *Entity {
	q := r.ordered(cpu)
	if len(q) == 0 {
		return nil
	}
	r.stats.Picks++
	pick := q[0]
	if avoid != 0 && !r.fifo {
		var best *Entity
		bestOcc := 2.0
		found := false
		examined := 0
		for i := 0; i < len(q) && i < r.eta; i++ {
			examined++
			if q[i].Mask&avoid == 0 {
				pick, found = q[i], true
				break
			}
			if r.bestEffort {
				occ := 0.0
				for g := 0; g < 64; g++ {
					if avoid.Has(g) {
						occ += q[i].Occupancy(g)
					}
				}
				if occ < bestOcc {
					bestOcc, best = occ, q[i]
				}
			}
		}
		switch {
		case found:
			r.stats.EligiblePicks++
			r.stats.SkippedCandidates += uint64(examined - 1)
			r.skipSum += uint64(examined - 1)
		case best != nil:
			pick = best
			r.stats.BestEffortPicks++
			r.stats.SkippedCandidates += uint64(examined - 1)
			r.skipSum += uint64(examined - 1)
		default:
			r.stats.FallbackPicks++
			r.skipSum += uint64(examined)
		}
	}
	r.remove(cpu, pick)
	return pick
}

// balance moves the last entity of the first longest queue to the tail
// of the first shortest queue until their lengths differ by at most one.
func (r *refQueues) balance() {
	for {
		lo, hi := 0, 0
		for i, q := range r.queues {
			if len(q) < len(r.queues[lo]) {
				lo = i
			}
			if len(q) > len(r.queues[hi]) {
				hi = i
			}
		}
		if len(r.queues[hi])-len(r.queues[lo]) <= 1 {
			return
		}
		q := r.ordered(hi)
		e := q[len(q)-1]
		r.remove(hi, e)
		r.queues[lo] = append(r.queues[lo], e)
		r.stats.Migrations++
	}
}

// TestCFSRunqueueOrderProperty drives random operation sequences
// through CFS and the sorted reference, and after every step requires
// each runqueue, its minimum vruntime, the decision counters and every
// picked task to match.
func TestCFSRunqueueOrderProperty(t *testing.T) { checkRunqueueOrder(t, false) }

// TestRRRunqueueOrderProperty runs the same sequences through
// round-robin and the FIFO reference, so the shared Dequeue, Put,
// LoadBalance and State/SetState are checked under a FIFO order too,
// and PickNext must take the head whatever it is asked to avoid.
func TestRRRunqueueOrderProperty(t *testing.T) { checkRunqueueOrder(t, true) }

func checkRunqueueOrder(t *testing.T, fifo bool) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncpu := 1 + rng.Intn(4)
		eta := 1 + rng.Intn(4)
		bestEffort := rng.Intn(2) == 0
		newScheduler := func() *Scheduler {
			if fifo {
				return NewRR(ncpu)
			}
			return NewCFS(ncpu, eta, bestEffort)
		}
		s := newScheduler()
		ref := &refQueues{queues: make([][]*Entity, ncpu), fifo: fifo, eta: eta, bestEffort: bestEffort}

		es := make([]*Entity, 1+rng.Intn(16))
		for i := range es {
			occ := make([]float64, 16)
			for g := range occ {
				occ[g] = float64(rng.Intn(5)) / 4
			}
			es[i] = &Entity{
				TaskID: i,
				// A small vruntime range makes (vruntime) ties common,
				// so the task-id tie-break is exercised.
				Vruntime:  uint64(rng.Intn(8)),
				Weight:    []uint64{0, 512, 2048}[rng.Intn(3)],
				Mask:      buddy.BankMask(rng.Uint64() & 0xffff),
				Occupancy: func(g int) float64 { return occ[g%16] },
			}
		}
		where := map[*Entity]int{} // enqueued entity → its cpu
		var running []*Entity      // picked, not yet put back

		for step := 0; step < 200; step++ {
			var off []*Entity
			for _, e := range es {
				if _, ok := where[e]; !ok && !contains(running, e) {
					off = append(off, e)
				}
			}
			op := rng.Intn(6)
			switch {
			case op == 0 && len(off) > 0: // wake or first enqueue
				e := off[rng.Intn(len(off))]
				cpu := rng.Intn(ncpu)
				if rng.Intn(2) == 0 {
					e.Vruntime = uint64(rng.Intn(8))
				}
				if min := s.MinVruntime(cpu); e.Vruntime < min {
					e.Vruntime = min
				}
				s.Enqueue(cpu, e)
				ref.queues[cpu] = append(ref.queues[cpu], e)
				where[e] = cpu
			case op == 1 && len(where) > 0: // sleep
				e := keys(where)[rng.Intn(len(where))]
				s.Dequeue(e)
				ref.remove(where[e], e)
				delete(where, e)
			case op == 2: // pick, with or without refresh awareness
				cpu := rng.Intn(ncpu)
				var avoid buddy.BankMask
				if rng.Intn(3) > 0 {
					avoid = buddy.BankMask(rng.Uint64() & 0xffff)
				}
				want := ref.pick(cpu, avoid)
				got := s.PickNext(cpu, avoid)
				if got != want {
					t.Fatalf("seed %d step %d: PickNext(%d, %#x) = %s, want %s",
						seed, step, cpu, uint64(avoid), name(got), name(want))
				}
				if got != nil {
					if got.OnRunqueue() {
						t.Fatalf("seed %d step %d: picked task %d still on its runqueue", seed, step, got.TaskID)
					}
					delete(where, got)
					running = append(running, got)
				}
			case op == 3 && len(running) > 0: // quantum end
				i := rng.Intn(len(running))
				e := running[i]
				running = append(running[:i], running[i+1:]...)
				ran := uint64(rng.Intn(3000))
				want := e.Vruntime + ran*NiceZeroWeight/weightOf(e)
				s.Put(e, ran)
				if e.Vruntime != want {
					t.Fatalf("seed %d step %d: Put charged task %d to vruntime %d, want %d",
						seed, step, e.TaskID, e.Vruntime, want)
				}
				ref.queues[e.CPU()] = append(ref.queues[e.CPU()], e)
				where[e] = e.CPU()
			case op == 4:
				s.LoadBalance()
				ref.balance()
				for cpu, q := range ref.queues {
					for _, e := range q {
						where[e] = cpu
					}
				}
			case op == 5: // checkpoint round trip
				st := s.State()
				s = newScheduler()
				s.SetState(st, func(id int) *Entity { return es[id] })
			}

			for cpu := 0; cpu < ncpu; cpu++ {
				want := ref.ordered(cpu)
				if got := s.queues[cpu]; !sameEntities(got, want) {
					t.Fatalf("seed %d step %d: cpu %d queue %v, want %v", seed, step, cpu, ids(got), ids(want))
				}
				wantMin := uint64(0)
				if len(want) > 0 && !fifo {
					wantMin = want[0].Vruntime
				}
				if got := s.MinVruntime(cpu); got != wantMin {
					t.Fatalf("seed %d step %d: MinVruntime(%d) = %d, want %d", seed, step, cpu, got, wantMin)
				}
				for _, e := range want {
					if !e.OnRunqueue() || e.CPU() != cpu {
						t.Fatalf("seed %d step %d: task %d on cpu %d's queue reports onRQ=%v cpu=%d",
							seed, step, e.TaskID, cpu, e.OnRunqueue(), e.CPU())
					}
				}
			}
			if got := s.State().PerCPU; !reflect.DeepEqual(got, stateOf(ref)) {
				t.Fatalf("seed %d step %d: State().PerCPU = %v, want %v", seed, step, got, stateOf(ref))
			}
			if got := *s.Stats(); got != ref.stats {
				t.Fatalf("seed %d step %d: Stats() = %+v, want %+v", seed, step, got, ref.stats)
			}
			if v := s.SkipHistogram().View(); v.Count != ref.stats.Picks || v.Sum != ref.skipSum {
				t.Fatalf("seed %d step %d: skip histogram count %d sum %d, want %d and %d",
					seed, step, v.Count, v.Sum, ref.stats.Picks, ref.skipSum)
			}
		}
	}
}

func contains(es []*Entity, e *Entity) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// keys lists the enqueued entities in task-id order, so the choice of
// one is deterministic.
func keys(m map[*Entity]int) []*Entity {
	var out []*Entity
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

func sameEntities(a, b []*Entity) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ids(q []*Entity) []int {
	out := []int{}
	for _, e := range q {
		out = append(out, e.TaskID)
	}
	return out
}

func name(e *Entity) string {
	if e == nil {
		return "nil"
	}
	return fmt.Sprintf("task %d", e.TaskID)
}

// stateOf is the State().PerCPU the reference implies.
func stateOf(r *refQueues) [][]int {
	per := make([][]int, len(r.queues))
	for cpu := range r.queues {
		for _, e := range r.ordered(cpu) {
			per[cpu] = append(per[cpu], e.TaskID)
		}
	}
	return per
}
