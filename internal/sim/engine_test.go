package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// funcs lets a test schedule Go funcs as payload events: each func is
// stored at the index its payload carries, and the dispatcher calls it.
type funcs struct {
	e  *Engine
	fs []func()
}

func newFuncs(e *Engine) *funcs {
	f := &funcs{e: e}
	e.SetExec(func(p Payload) { f.fs[p.A]() })
	return f
}

// at schedules fn at absolute time t.
func (f *funcs) at(t Time, fn func()) {
	f.fs = append(f.fs, fn)
	f.e.SchedulePAt(t, Payload{A: uint64(len(f.fs) - 1)})
}

// after schedules fn d cycles from now.
func (f *funcs) after(d Time, fn func()) { f.at(f.e.Now()+d, fn) }

// step runs every event due at the earliest pending timestamp and
// reports whether there was one.
func step(e *Engine) bool {
	t, ok := e.nextEventTime()
	if e.fifoHead < len(e.fifo) {
		t, ok = e.now, true
	}
	if ok {
		e.RunUntil(t)
	}
	return ok
}

// runIdle runs events until none is pending, leaving the clock at the
// last one (a RunUntil bound would move it further).
func runIdle(e *Engine) {
	for step(e) {
	}
}

// pending counts the scheduled, not yet executed events.
func pending(e *Engine) int {
	return len(e.fifo) - e.fifoHead + e.calCount + len(e.heap)
}

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	var got []int
	f.after(30, func() { got = append(got, 3) })
	f.after(10, func() { got = append(got, 1) })
	f.after(20, func() { got = append(got, 2) })
	runIdle(e)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongSameCycle(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		f.after(5, func() { got = append(got, i) })
	}
	runIdle(e)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order = %v, want FIFO", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	var got []Time
	f.after(10, func() {
		got = append(got, e.Now())
		f.after(5, func() { got = append(got, e.Now()) })
		f.after(0, func() { got = append(got, e.Now()) })
	})
	runIdle(e)
	want := []Time{10, 10, 15}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("times = %v, want %v", got, want)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		f.after(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	if n := pending(e); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: fired=%v now=%d", fired, e.Now())
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	f.after(10, func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Error("scheduling in the past did not panic")
				return
			}
			// The panic must carry the typed fault — so the core run
			// boundary can convert it into a returned error — and its
			// message must include both offending times.
			fault, ok := p.(*PastEventError)
			if !ok {
				t.Errorf("panic value = %T, want *PastEventError", p)
				return
			}
			if fault.T != 5 || fault.Now != 10 {
				t.Errorf("fault = %+v, want T=5 Now=10", fault)
			}
			var _ Fault = fault // must satisfy the marker interface
			for _, want := range []string{"t=5", "now=10"} {
				if !strings.Contains(fault.Error(), want) {
					t.Errorf("fault message %q missing %q", fault.Error(), want)
				}
			}
		}()
		f.at(5, func() {})
	})
	runIdle(e)
}

func TestEngineSameCycleFastPathOrdering(t *testing.T) {
	// Events scheduled at the current cycle take the FIFO fast path;
	// they must still interleave correctly with calendar events
	// previously scheduled for the same cycle.
	e := NewEngine()
	f := newFuncs(e)
	var got []int
	f.after(10, func() {
		got = append(got, 1)
		f.after(0, func() { got = append(got, 3) })    // fast path
		f.at(e.Now(), func() { got = append(got, 4) }) // fast path again
	})
	f.after(10, func() { got = append(got, 2) }) // same cycle, scheduled earlier
	runIdle(e)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineReserve(t *testing.T) {
	e := NewEngine()
	e.SetExec(func(Payload) {})
	e.Reserve(64)
	for i := 0; i < 64; i++ {
		e.SchedulePAt(Time(i%7)+1, Payload{})
	}
	if n := pending(e); n != 64 {
		t.Fatalf("pending = %d, want 64", n)
	}
	runIdle(e)
	if e.Executed != 64 {
		t.Fatalf("Executed = %d, want 64", e.Executed)
	}
	// Reserving after events exist must preserve them.
	e.SchedulePAt(e.Now()+1, Payload{})
	e.SchedulePAt(e.Now()+2, Payload{})
	e.Reserve(1024)
	runIdle(e)
	if e.Executed != 66 {
		t.Fatalf("Executed = %d, want 66", e.Executed)
	}
}

func TestEngineScheduleIsAllocationFree(t *testing.T) {
	// The hand-rolled heap must not box events: once the slices are at
	// capacity, scheduling and executing performs zero allocations.
	// Every event schedules its successor, so the 128-event population
	// stays warm.
	e := NewEngine()
	e.Reserve(256)
	i := 0
	e.SetExec(func(Payload) {
		e.SchedulePAt(e.Now()+Time(i%31)+1, Payload{})
		i++
	})
	for j := 0; j < 128; j++ {
		e.SchedulePAt(Time(j%31)+1, Payload{})
	}
	allocs := testing.AllocsPerRun(1000, func() { step(e) })
	if allocs != 0 {
		t.Fatalf("allocs per schedule+step = %v, want 0", allocs)
	}
}

func TestEngineMixedFastAndHeapPaths(t *testing.T) {
	// Property check: a random mix of zero and nonzero delays executes
	// in nondecreasing time order with FIFO ties, and every event runs.
	r := NewRand(3)
	e := NewEngine()
	f := newFuncs(e)
	total := 0
	var executed int
	var lastWhen Time
	var schedule func(depth int)
	schedule = func(depth int) {
		if depth > 3 {
			return
		}
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			total++
			d := Time(r.Intn(3)) // 0 hits the fast path
			f.after(d, func() {
				if e.Now() < lastWhen {
					t.Errorf("clock went backwards: %d after %d", e.Now(), lastWhen)
				}
				lastWhen = e.Now()
				executed++
				schedule(depth + 1)
			})
		}
	}
	total++
	f.after(1, func() { executed++; schedule(0) })
	runIdle(e)
	if executed != total {
		t.Fatalf("executed %d of %d events", executed, total)
	}
	if n := pending(e); n != 0 {
		t.Fatalf("pending = %d after running to idle", n)
	}
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	// Whatever delays are scheduled, observed times never decrease.
	check := func(delays []uint8) bool {
		e := NewEngine()
		f := newFuncs(e)
		last := Time(0)
		ok := true
		for _, d := range delays {
			f.after(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		runIdle(e)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(42)
	f1 := a.Fork()
	f2 := a.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams matched %d/100 draws", same)
	}
}

func TestRandZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if m := sum / n; m < 0.48 || m > 0.52 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", m)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestRandPanicsOnBadArgs(t *testing.T) {
	r := NewRand(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Intn(-1) },
		func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad argument did not panic")
				}
			}()
			fn()
		}()
	}
}
