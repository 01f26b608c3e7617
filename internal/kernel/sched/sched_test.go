package sched

import (
	"testing"

	"refsched/internal/kernel/buddy"
)

func entities(n int) []*Entity {
	out := make([]*Entity, n)
	for i := range out {
		out[i] = &Entity{TaskID: i}
	}
	return out
}

func TestCFSPicksLowestVruntime(t *testing.T) {
	s := NewCFS(1, 4, false)
	es := entities(3)
	es[0].Vruntime = 300
	es[1].Vruntime = 100
	es[2].Vruntime = 200
	for _, e := range es {
		s.Enqueue(0, e)
	}
	if got := s.PickNext(0, 0); got != es[1] {
		t.Fatalf("picked task %d, want 1", got.TaskID)
	}
	if es[1].OnRunqueue() {
		t.Fatal("picked entity still on runqueue")
	}
	if len(s.queues[0]) != 2 {
		t.Fatalf("queue length = %d", len(s.queues[0]))
	}
}

func TestCFSPutChargesVruntime(t *testing.T) {
	s := NewCFS(1, 4, false)
	es := entities(2)
	s.Enqueue(0, es[0])
	s.Enqueue(0, es[1])
	// Task 0 runs 1000 cycles; next pick must be task 1.
	e := s.PickNext(0, 0)
	s.Put(e, 1000)
	if got := s.PickNext(0, 0); got != es[1] {
		t.Fatalf("picked %d after charging task 0", got.TaskID)
	}
	// And fairness alternates.
	s.Put(es[1], 1000)
	if got := s.PickNext(0, 0); got.TaskID != 0 {
		t.Fatalf("alternation broken: picked %d", got.TaskID)
	}
}

func TestCFSAlgorithm3PicksEligible(t *testing.T) {
	s := NewCFS(1, 4, false)
	banksAll := buddy.AllBanks(16)
	es := entities(3)
	// Task 0 is leftmost but has data on bank 5; task 1 excludes it.
	es[0].Vruntime = 1
	es[0].Mask = banksAll
	es[1].Vruntime = 2
	es[1].Mask = banksAll &^ (1 << 5)
	es[2].Vruntime = 3
	es[2].Mask = banksAll
	for _, e := range es {
		s.Enqueue(0, e)
	}
	avoid := buddy.BankMask(0).Set(5)
	if got := s.PickNext(0, avoid); got != es[1] {
		t.Fatalf("picked %d, want refresh-safe task 1", got.TaskID)
	}
	st := s.Stats()
	if st.EligiblePicks != 1 || st.SkippedCandidates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCFSEtaFallbackToLeftmost(t *testing.T) {
	s := NewCFS(1, 2, false) // eta = 2
	banksAll := buddy.AllBanks(16)
	es := entities(4)
	for i, e := range es {
		e.Vruntime = uint64(i)
		e.Mask = banksAll // nobody excludes anything
		s.Enqueue(0, e)
	}
	avoid := buddy.BankMask(0).Set(3)
	got := s.PickNext(0, avoid)
	if got != es[0] {
		t.Fatalf("fallback picked %d, want leftmost 0", got.TaskID)
	}
	if s.Stats().FallbackPicks != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestCFSEtaOneDisablesRefreshAwareness(t *testing.T) {
	s := NewCFS(1, 1, false)
	banksAll := buddy.AllBanks(16)
	es := entities(2)
	es[0].Vruntime = 1
	es[0].Mask = banksAll // conflicts with avoid
	es[1].Vruntime = 2
	es[1].Mask = banksAll &^ (1 << 0)
	s.Enqueue(0, es[0])
	s.Enqueue(0, es[1])
	// Even though task 1 is safe, eta=1 examines only the leftmost.
	if got := s.PickNext(0, buddy.BankMask(0).Set(0)); got != es[0] {
		t.Fatalf("eta=1 picked %d, want leftmost", got.TaskID)
	}
}

func TestCFSBestEffortMinOccupancy(t *testing.T) {
	s := NewCFS(1, 4, true)
	banksAll := buddy.AllBanks(16)
	es := entities(3)
	occ := []float64{0.5, 0.1, 0.3}
	for i, e := range es {
		i := i
		e.Vruntime = uint64(i)
		e.Mask = banksAll // everyone has data everywhere
		e.Occupancy = func(g int) float64 {
			if g == 2 {
				return occ[i]
			}
			return 0
		}
		s.Enqueue(0, e)
	}
	got := s.PickNext(0, buddy.BankMask(0).Set(2))
	if got != es[1] {
		t.Fatalf("best-effort picked %d, want minimal-occupancy task 1", got.TaskID)
	}
	if s.Stats().BestEffortPicks != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestCFSEmptyQueue(t *testing.T) {
	s := NewCFS(2, 4, false)
	if s.PickNext(0, 0) != nil {
		t.Fatal("empty queue returned an entity")
	}
}

func TestCFSLoadBalance(t *testing.T) {
	s := NewCFS(2, 4, false)
	es := entities(6)
	for _, e := range es {
		s.Enqueue(0, e) // all on CPU 0
	}
	moved := s.LoadBalance()
	if moved == 0 {
		t.Fatal("no migrations")
	}
	if d := len(s.queues[0]) - len(s.queues[1]); d < -1 || d > 1 {
		t.Fatalf("imbalance %d after balance", d)
	}
	if s.Stats().Migrations != uint64(moved) {
		t.Fatal("migration stat mismatch")
	}
}

func TestCFSDequeue(t *testing.T) {
	s := NewCFS(1, 4, false)
	e := &Entity{TaskID: 0}
	s.Enqueue(0, e)
	s.Dequeue(e)
	if e.OnRunqueue() || len(s.queues[0]) != 0 {
		t.Fatal("dequeue failed")
	}
	s.Dequeue(e) // idempotent
}

func TestRRRotation(t *testing.T) {
	s := NewRR(1)
	es := entities(3)
	for _, e := range es {
		s.Enqueue(0, e)
	}
	var order []int
	for i := 0; i < 6; i++ {
		e := s.PickNext(0, 0)
		order = append(order, e.TaskID)
		s.Put(e, 100)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RR order = %v", order)
		}
	}
}

func TestRRIgnoresAvoid(t *testing.T) {
	s := NewRR(1)
	e := &Entity{TaskID: 0, Mask: buddy.AllBanks(16)}
	s.Enqueue(0, e)
	if got := s.PickNext(0, buddy.BankMask(0).Set(0)); got != e {
		t.Fatal("RR should ignore refresh state")
	}
}

func TestRRLoadBalance(t *testing.T) {
	s := NewRR(3)
	for _, e := range entities(7) {
		s.Enqueue(0, e)
	}
	s.LoadBalance()
	max, min := 0, 99
	for c := 0; c < 3; c++ {
		n := len(s.queues[c])
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max-min > 1 {
		t.Fatalf("RR balance spread %d..%d", min, max)
	}
}

func TestRRDequeueMiddle(t *testing.T) {
	s := NewRR(1)
	es := entities(3)
	for _, e := range es {
		s.Enqueue(0, e)
	}
	s.Dequeue(es[1])
	if len(s.queues[0]) != 2 {
		t.Fatal("dequeue failed")
	}
	if got := s.PickNext(0, 0); got != es[0] {
		t.Fatal("order disturbed")
	}
	if got := s.PickNext(0, 0); got != es[2] {
		t.Fatal("middle removal broken")
	}
}

// TestCFSFairnessUnderRefreshAwareness: with group-staggered masks (the
// co-design assignment), long-run CPU time stays balanced across tasks.
func TestCFSFairnessUnderRefreshAwareness(t *testing.T) {
	s := NewCFS(1, 8, false)
	all := buddy.AllBanks(16)
	// 4 tasks, 4 groups: task i excludes banks {2i, 2i+1} in both ranks.
	es := entities(4)
	for i, e := range es {
		m := all
		for _, b := range []int{2 * i, 2*i + 1} {
			m &^= 1 << uint(b)
			m &^= 1 << uint(8+b)
		}
		e.Mask = m
		s.Enqueue(0, e)
	}
	runs := make([]int, 4)
	// Walk 64 slots (4 windows of 16 banks).
	for slot := 0; slot < 64; slot++ {
		bank := slot % 16
		e := s.PickNext(0, buddy.BankMask(0).Set(bank))
		runs[e.TaskID]++
		s.Put(e, 1000)
	}
	for i, r := range runs {
		if r != 16 {
			t.Fatalf("task %d ran %d slots, want 16 (runs=%v)", i, r, runs)
		}
	}
	if s.Stats().FallbackPicks != 0 {
		t.Fatalf("fallbacks = %d, want 0", s.Stats().FallbackPicks)
	}
}

// TestCFSSkipHistogram pins the skips-per-pick distribution: a pick
// with no refresh in flight records 0, an eligible pick records the
// candidates walked past, and an η-exhausted fallback records every
// examined candidate (the mass the raw SkippedCandidates counter
// deliberately excludes).
func TestCFSSkipHistogram(t *testing.T) {
	s := NewCFS(1, 2, false) // eta = 2
	all := buddy.AllBanks(16)
	es := entities(3)
	for i, e := range es {
		e.Vruntime = uint64(i)
		e.Mask = all
		s.Enqueue(0, e)
	}

	// Pick 1: no refresh in flight → bucket 0.
	s.Put(s.PickNext(0, 0), 10)
	// Pick 2: all candidates conflict, η=2 exhausted → fallback
	// records 2 examined skips; the raw counter stays at 0.
	s.Put(s.PickNext(0, buddy.BankMask(0).Set(3)), 10)

	v := s.SkipHistogram().View()
	if v.Count != 2 || v.Sum != 2 || v.Max != 2 {
		t.Fatalf("histogram = %+v, want count=2 sum=2 max=2", v)
	}
	if v.Counts[0] != 1 || v.Counts[2] != 1 {
		t.Fatalf("buckets = %v, want one sample at 0 and one at 2", v.Counts)
	}
	if got := s.Stats().SkippedCandidates; got != 0 {
		t.Fatalf("SkippedCandidates = %d, want 0 (fallback picks excluded)", got)
	}
}

// TestCFSSkipHistogramEligible: an eligible pick that walked past one
// conflicting candidate lands in bucket 1 and bumps the raw counter.
func TestCFSSkipHistogramEligible(t *testing.T) {
	s := NewCFS(1, 4, false)
	all := buddy.AllBanks(16)
	es := entities(2)
	es[0].Vruntime = 1
	es[0].Mask = all // conflicts with any avoid
	es[1].Vruntime = 2
	es[1].Mask = all &^ (1 << 5)
	s.Enqueue(0, es[0])
	s.Enqueue(0, es[1])

	if got := s.PickNext(0, buddy.BankMask(0).Set(5)); got != es[1] {
		t.Fatalf("picked %d, want 1", got.TaskID)
	}
	v := s.SkipHistogram().View()
	if v.Count != 1 || v.Counts[1] != 1 {
		t.Fatalf("histogram = %+v, want one sample in bucket 1", v)
	}
	if got := s.Stats().SkippedCandidates; got != 1 {
		t.Fatalf("SkippedCandidates = %d, want 1", got)
	}
}

// TestRRSkipHistogram: the refresh-oblivious baseline records every
// pick as zero skips, so the exported distribution stays comparable
// across policy bundles.
func TestRRSkipHistogram(t *testing.T) {
	s := NewRR(1)
	es := entities(2)
	s.Enqueue(0, es[0])
	s.Enqueue(0, es[1])
	s.Put(s.PickNext(0, buddy.BankMask(0).Set(3)), 10)
	s.Put(s.PickNext(0, 0), 10)
	v := s.SkipHistogram().View()
	if v.Count != 2 || v.Counts[0] != 2 || v.Sum != 0 {
		t.Fatalf("histogram = %+v, want two zero samples", v)
	}
}
