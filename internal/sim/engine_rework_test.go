package sim

import (
	"reflect"
	"sort"
	"testing"
)

// lcg is a tiny deterministic generator for test scripts (avoids
// coupling tests to sim.Rand's stream).
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

// TestEngineDifferentialOrdering runs a randomized scheduling script on
// the engine and on a trivially correct reference (a sorted list) and
// requires identical execution order. Delays are drawn to exercise all
// three stores — same-cycle FIFO (0), calendar queue (< horizon), and
// far heap (≥ horizon) — including the exact horizon boundary, plus
// nested rescheduling from inside events.
func TestEngineDifferentialOrdering(t *testing.T) {
	delays := []Time{0, 1, 2, 3, 30, 600, calHorizon - 1, calHorizon, calHorizon + 1, 3 * calHorizon, 50000}
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		f := newFuncs(e)
		rng := lcg(1000 + trial)

		// Reference: (when, seq) pairs sorted stably.
		type refEv struct {
			when Time
			seq  int
			id   int
		}
		var ref []refEv
		refSeq := 0
		var refNow Time

		var got []int
		id := 0
		var add func(depth int)
		add = func(depth int) {
			d := delays[rng.next()%uint64(len(delays))]
			myID := id
			id++
			refSeq++
			ref = append(ref, refEv{when: refNow + d, seq: refSeq, id: myID})
			f.at(refNow+d, func() {
				got = append(got, myID)
				if depth < 3 && rng.next()%3 == 0 {
					// Nested scheduling relative to this event's time.
					refNow = e.Now()
					add(depth + 1)
				}
			})
		}
		// Seed population. Reference "now" tracking: events added from
		// inside a running event use e.Now(); initial adds use 0.
		for i := 0; i < 200; i++ {
			refNow = 0
			add(0)
		}
		// Execute the engine, then sort the reference by the recorded
		// (when, seq) to get the order it must have produced.
		runIdle(e)

		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].when != ref[b].when {
				return ref[a].when < ref[b].when
			}
			return ref[a].seq < ref[b].seq
		})
		want := make([]int, len(ref))
		for i, r := range ref {
			want[i] = r.id
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: execution order diverged from (when, seq) reference\n got=%v\nwant=%v", trial, got, want)
		}
		if n := pending(e); n != 0 {
			t.Fatalf("trial %d: %d events left pending after running to idle", trial, n)
		}
	}
}

// The reference above records nested events' times via refNow, set to
// e.Now() just before add() inside the event body; add() runs
// synchronously from the running event, when e.Now() equals the
// event's timestamp.

// TestEngineRunUntilBoundaryEvents pins the inclusive boundary: events
// scheduled at exactly t run, events one cycle later do not, and the
// clock lands exactly on t either way.
func TestEngineRunUntilBoundaryEvents(t *testing.T) {
	for _, base := range []Time{0, calHorizon - 1, calHorizon, 123456} {
		e := NewEngine()
		f := newFuncs(e)
		e.RunUntil(base)
		var ranAt, ranAfter, nested bool
		f.at(base+100, func() {
			ranAt = true
			// An event scheduled at the boundary cycle itself must also
			// run before RunUntil returns.
			f.after(0, func() { nested = true })
		})
		f.at(base+101, func() { ranAfter = true })
		e.RunUntil(base + 100)
		if !ranAt || !nested {
			t.Fatalf("base %d: event at boundary ran=%v nested=%v, want both true", base, ranAt, nested)
		}
		if ranAfter {
			t.Fatalf("base %d: event after boundary ran", base)
		}
		if e.Now() != base+100 {
			t.Fatalf("base %d: Now() = %d, want %d", base, e.Now(), base+100)
		}
		if n := pending(e); n != 1 {
			t.Fatalf("base %d: pending = %d, want 1", base, n)
		}
	}
}

// TestEngineRunUntilPast pins that RunUntil with a bound before the
// current clock executes nothing and leaves the clock unchanged, even
// with same-cycle events pending.
func TestEngineRunUntilPast(t *testing.T) {
	e := NewEngine()
	f := newFuncs(e)
	e.RunUntil(50)
	ran := false
	f.after(0, func() { ran = true })
	e.RunUntil(10)
	if ran {
		t.Fatal("RunUntil(past) executed a pending same-cycle event")
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
}

// TestEngineAllocationFreeAllStores extends the allocation guard to the
// reworked stores: after Reserve, steady-state scheduling through the
// same-cycle FIFO, the calendar queue, and the far heap must all be
// allocation-free (the calendar arena recycles nodes via its freelist).
func TestEngineAllocationFreeAllStores(t *testing.T) {
	cases := []struct {
		name  string
		delay func(i int) Time
	}{
		{"calendar", func(i int) Time { return Time(i%31) + 1 }},
		{"heap", func(i int) Time { return calHorizon + Time(i%31)*17 }},
		{"mixed", func(i int) Time {
			switch i % 3 {
			case 0:
				return 0
			case 1:
				return Time(i%600) + 1
			default:
				return calHorizon + Time(i%1000)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.Reserve(256)
			// Every event schedules its successor, so the population
			// stays at its seeded size.
			i := 0
			e.SetExec(func(Payload) {
				e.SchedulePAt(e.Now()+tc.delay(i), Payload{})
				i++
			})
			for j := 0; j < 128; j++ {
				e.SchedulePAt(tc.delay(j), Payload{})
			}
			// Warm to steady state.
			for j := 0; j < 4096; j++ {
				step(e)
			}
			allocs := testing.AllocsPerRun(2000, func() { step(e) })
			if allocs != 0 {
				t.Fatalf("%s steady-state schedule+step allocates %.2f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestEngineReservePresizesCalendarArena verifies the Reserve contract
// for the calendar store specifically: after Reserve(n), scheduling n
// near-future events must not grow the arena.
func TestEngineReservePresizesCalendarArena(t *testing.T) {
	e := NewEngine()
	e.SetExec(func(Payload) {})
	const n = 500
	e.Reserve(n)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			e.SchedulePAt(e.Now()+Time(i%100)+1, Payload{})
		}
		runIdle(e)
	})
	// The only possible allocations are store growth, which Reserve
	// must have prevented.
	if allocs != 0 {
		t.Fatalf("scheduling %d calendar events after Reserve(%d) allocates %.2f allocs/op, want 0", n, n, allocs)
	}
}

// TestEngineCalendarWraparound schedules across many horizon multiples
// so bucket slots are reused repeatedly, checking the slot-to-timestamp
// mapping stays unambiguous as the ring wraps.
func TestEngineCalendarWraparound(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.SetExec(func(Payload) { got = append(got, e.Now()) })
	want := make([]Time, 0, 64)
	var at Time
	for i := 0; i < 64; i++ {
		at += calHorizon/3 + Time(i*7)
		want = append(want, at)
		e.SchedulePAt(at, Payload{})
	}
	runIdle(e)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wraparound execution times diverged\n got=%v\nwant=%v", got, want)
	}
}
