package sched

import "testing"

func TestNiceToWeight(t *testing.T) {
	if NiceToWeight(0) != 1024 {
		t.Fatalf("nice 0 weight = %d", NiceToWeight(0))
	}
	if NiceToWeight(-20) != 88761 || NiceToWeight(19) != 15 {
		t.Fatal("table endpoints wrong")
	}
	// Clamping.
	if NiceToWeight(-100) != 88761 || NiceToWeight(100) != 15 {
		t.Fatal("clamping broken")
	}
	// Monotonically decreasing.
	for n := -19; n <= 19; n++ {
		if NiceToWeight(n) >= NiceToWeight(n-1) {
			t.Fatalf("weight not decreasing at nice %d", n)
		}
	}
}

func TestChargeVruntime(t *testing.T) {
	e := &Entity{}
	if chargeVruntime(e, 1000) != 1000 {
		t.Fatal("nice-0 charge should be identity")
	}
	e.Weight = 2048
	if chargeVruntime(e, 1000) != 500 {
		t.Fatal("double weight should halve the charge")
	}
}

// TestPriorityGetsProportionalShare: a nice -5 task should run roughly
// 3x as often as a nice 0 task under CFS.
func TestPriorityGetsProportionalShare(t *testing.T) {
	s := NewCFS(1, 4, false)
	hi := &Entity{TaskID: 0, Weight: NiceToWeight(-5)} // 3121
	lo := &Entity{TaskID: 1}                           // 1024
	s.Enqueue(0, hi)
	s.Enqueue(0, lo)
	runs := map[int]int{}
	for i := 0; i < 400; i++ {
		e := s.PickNext(0, 0)
		runs[e.TaskID]++
		s.Put(e, 1000)
	}
	ratio := float64(runs[0]) / float64(runs[1])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("share ratio = %v (runs %v), want ~3.05", ratio, runs)
	}
}

// TestWakePlacementViaMinVruntime: MinVruntime tracks the leftmost task.
func TestMinVruntime(t *testing.T) {
	s := NewCFS(1, 4, false)
	if s.MinVruntime(0) != 0 {
		t.Fatal("empty queue min should be 0")
	}
	a := &Entity{TaskID: 0, Vruntime: 500}
	b := &Entity{TaskID: 1, Vruntime: 300}
	s.Enqueue(0, a)
	s.Enqueue(0, b)
	if s.MinVruntime(0) != 300 {
		t.Fatalf("min = %d", s.MinVruntime(0))
	}
	rr := NewRR(1)
	rr.Enqueue(0, &Entity{TaskID: 2, Vruntime: 300})
	if rr.MinVruntime(0) != 0 {
		t.Fatal("RR min should be 0")
	}
}
