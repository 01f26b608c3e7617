// Package sim provides the discrete-event simulation kernel used by every
// other subsystem: a global cycle clock, an event queue, and deterministic
// pseudo-random streams.
//
// All simulated time is expressed in CPU cycles (uint64). Components
// schedule closures to run at absolute or relative times; the engine
// executes them in (time, insertion-order) order, so the simulation is
// fully deterministic for a given configuration and seed.
package sim

import "math/bits"

// Time is a point in simulated time, measured in CPU clock cycles.
type Time = uint64

// Payload is a typed, closure-free event body. An event scheduled with a
// payload carries no Go closure: it is dispatched through the engine's
// exec hook (see SetExec), which routes on Kind and the operand words.
// Payload events are the serializable subset of the event population —
// an engine whose pending events are all payloads can be checkpointed
// and restored exactly (see SnapshotState).
type Payload struct {
	Kind uint16
	A    uint64
	B    uint64
	C    uint64
	D    uint64
	E    uint64
}

// Payload kinds. The registry is central (rather than per-package) so a
// snapshot can be validated against one closed set and the dispatcher in
// internal/core can switch exhaustively.
const (
	KindNone uint16 = iota
	// Memory controller (A = channel index).
	KindMCRefreshTick // periodic refresh scheduling tick
	KindMCTryIssue    // FR-FCFS issue re-evaluation
	// Request completion (A = channel, B = core+1 (0 = unowned), C = miss
	// id, D = miss epoch). Unowned completions (writebacks) still execute
	// as events so Executed counts match the closure implementation.
	KindMCComplete
	// CPU core (A = core index).
	KindCPUSubmitRead  // B = line addr, C = miss id, D = epoch, E = task id + 1
	KindCPUSubmitWrite // B = line addr, E = task id + 1
	KindCPUQuantumEnd  // B = deferred quantum-end time
	// Kernel scheduler.
	KindKernelDispatch // A = cpu index, B = dispatch time
	KindKernelRunTask  // A = cpu index, B = task id, C = quantum end
	KindKernelWake     // A = task id, B = cpu index
)

// event is a scheduled closure or typed payload (fn == nil).
type event struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among events at the same cycle
	fn   func()
	p    Payload
}

// eventLess orders events by (when, seq).
func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Calendar-queue geometry. DRAM timing events cluster within short
// horizons — command/burst completions and FR-FCFS re-evaluations land
// within the prompt window (~600 cycles), per-bank refresh ticks within
// tREFIab/banks (~1.5k cycles), and refresh-end wakeups within tRFCab
// (~2.8k cycles at 32 Gb) — so a 4096-cycle ring captures the bulk of
// the event population in O(1) scheduling instead of O(log n) heap
// sifts. Millisecond-scale events (quantum ends, all-bank refresh
// ticks, run-ahead resync of compute-bound cores) overflow to the heap,
// which stays tiny as a result.
const (
	calHorizon = 1 << 12
	calMask    = calHorizon - 1
	calWords   = calHorizon / 64
)

// calNode is one calendar-queue entry: bucket chains are singly-linked
// lists of arena indices, so scheduling into a bucket is one arena
// append plus two int32 stores — no per-bucket slice to grow and no
// allocation once the arena reaches steady-state capacity.
type calNode struct {
	ev   event
	next int32 // arena index of the next node in the same bucket; 0 ends the chain
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Internally events live in three structures, all monomorphic (no
// container/heap interface{} boxing, so the hot scheduling path is
// allocation-free once the backing stores reach steady-state capacity):
//
//   - a FIFO of events due at the current cycle (same-cycle Schedule
//     calls append here directly);
//   - a calendar queue — a ring of calHorizon buckets indexed by
//     (when & calMask), each an arena-backed linked list in seq order,
//     with a bitmap for O(1) next-nonempty-bucket search — holding every
//     event due within calHorizon cycles of now;
//   - a 4-ary min-heap over []event for events at or beyond the horizon
//     (shallower than a binary heap, and the 4-child minimum scan stays
//     in one cache line of events).
//
// When the clock advances, all events sharing the earliest timestamp are
// drained into the FIFO by merging the bucket chain and the heap run in
// seq order. Execution order is therefore exactly the strict (when, seq)
// order of the original single-heap implementation.
type Engine struct {
	now      Time
	seq      uint64
	fifo     []event // events due at exactly now, in seq order
	fifoHead int     // next unexecuted index into fifo
	stopped  bool

	// Calendar queue: invariant — every bucketed event has
	// now < when < now+calHorizon, so a slot maps to a unique timestamp.
	calHead  [calHorizon]int32
	calTail  [calHorizon]int32
	calBits  [calWords]uint64
	calCount int
	arena    []calNode // slot 0 is a reserved sentinel (0 = nil link)
	freeHead int32     // freelist of recycled arena nodes (0 = empty)

	heap []event // 4-ary min-heap by (when, seq); every when > now

	// exec dispatches payload events (events scheduled without a
	// closure); installed once by the system owner via SetExec.
	exec func(Payload)

	// Executed counts events processed since construction; useful for
	// progress reporting and runaway detection in tests.
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int {
	return len(e.fifo) - e.fifoHead + e.calCount + len(e.heap)
}

// Reserve pre-sizes the internal event stores — the heap, the same-cycle
// FIFO, and the calendar-queue node arena — to hold at least n pending
// events without reallocating, for hot scheduling loops whose
// steady-state population is known up front.
func (e *Engine) Reserve(n int) {
	if cap(e.heap) < n {
		h := make([]event, len(e.heap), n)
		copy(h, e.heap)
		e.heap = h
	}
	if cap(e.fifo) < n {
		f := make([]event, len(e.fifo), n)
		copy(f, e.fifo)
		e.fifo = f
	}
	// +1 for the reserved sentinel slot.
	if cap(e.arena) < n+1 {
		a := make([]calNode, len(e.arena), n+1)
		copy(a, e.arena)
		e.arena = a
	}
}

// Schedule runs fn after delay cycles (possibly zero, meaning "later this
// cycle", after already-queued same-cycle events).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay == 0 {
		// Same-cycle fast path: straight to the FIFO, no queue traffic.
		e.seq++
		e.fifo = append(e.fifo, event{when: e.now, seq: e.seq, fn: fn})
		return
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past always
// indicates a component bookkeeping bug; it unwinds with a typed
// *PastEventError fault, which the core run API converts into a
// returned error at its boundary (see Fault).
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.schedule(t, fn, Payload{})
}

// SetExec installs the dispatcher for payload events. Scheduling a
// payload without a dispatcher installed is a programming error caught
// at execution time.
func (e *Engine) SetExec(fn func(Payload)) { e.exec = fn }

// ScheduleP schedules a payload event after delay cycles (possibly
// zero), exactly like Schedule but closure-free.
func (e *Engine) ScheduleP(delay Time, p Payload) {
	if delay == 0 {
		e.seq++
		e.fifo = append(e.fifo, event{when: e.now, seq: e.seq, p: p})
		return
	}
	e.SchedulePAt(e.now+delay, p)
}

// SchedulePAt schedules a payload event at absolute time t.
func (e *Engine) SchedulePAt(t Time, p Payload) {
	e.schedule(t, nil, p)
}

// schedule routes an event to the right store by its distance from now.
func (e *Engine) schedule(t Time, fn func(), p Payload) {
	if t < e.now {
		panic(&PastEventError{T: t, Now: e.now})
	}
	e.seq++
	ev := event{when: t, seq: e.seq, fn: fn, p: p}
	switch {
	case t == e.now:
		e.fifo = append(e.fifo, ev)
	case t-e.now < calHorizon:
		e.calPush(ev)
	default:
		e.heapPush(ev)
	}
}

// run executes one event body: the closure if present, else the payload
// dispatcher.
func (e *Engine) run(ev event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	if e.exec == nil {
		panic("sim: payload event scheduled without a SetExec dispatcher")
	}
	e.exec(ev.p)
}

// --- calendar queue ---

// calPush appends ev to its bucket chain (seq order is append order,
// because seq is globally monotone).
func (e *Engine) calPush(ev event) {
	if len(e.arena) == 0 {
		e.arena = append(e.arena, calNode{}) // sentinel
	}
	var i int32
	if e.freeHead != 0 {
		i = e.freeHead
		e.freeHead = e.arena[i].next
		e.arena[i] = calNode{ev: ev}
	} else {
		e.arena = append(e.arena, calNode{ev: ev})
		i = int32(len(e.arena) - 1)
	}
	slot := int(ev.when) & calMask
	if e.calTail[slot] == 0 {
		e.calHead[slot] = i
		e.calBits[slot>>6] |= 1 << uint(slot&63)
	} else {
		e.arena[e.calTail[slot]].next = i
	}
	e.calTail[slot] = i
	e.calCount++
}

// nextCalTime returns the earliest bucketed timestamp, scanning the
// occupancy bitmap from the slot after now (bucketed events are always
// strictly in the future), wrapping around the ring.
func (e *Engine) nextCalTime() (Time, bool) {
	if e.calCount == 0 {
		return 0, false
	}
	start := (int(e.now) + 1) & calMask
	// First (partial) word: mask off bits below start.
	w := e.calBits[start>>6] &^ (1<<uint(start&63) - 1)
	idx := start >> 6
	for scanned := 0; scanned <= calWords; scanned++ {
		if w != 0 {
			slot := idx<<6 + bits.TrailingZeros64(w)
			delta := (slot - int(e.now)) & calMask
			return e.now + Time(delta), true
		}
		idx = (idx + 1) & (calWords - 1)
		w = e.calBits[idx]
	}
	return 0, false // unreachable while calCount > 0
}

// --- 4-ary heap ---

// heapPush inserts ev (sift-up).
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the minimum event (sift-down).
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure for GC
	h = h[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if eventLess(h[k], h[m]) {
				m = k
			}
		}
		if !eventLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}

// --- clock advance ---

// nextEventTime returns the timestamp of the earliest non-FIFO event.
func (e *Engine) nextEventTime() (Time, bool) {
	t, ok := e.nextCalTime()
	if len(e.heap) > 0 && (!ok || e.heap[0].when < t) {
		return e.heap[0].when, true
	}
	return t, ok
}

// drainTo merges every event due exactly at t — the bucket chain at
// t's slot and the heap's equal-timestamp run, both seq-ascending —
// into the FIFO in strict seq order. The caller has already set now = t.
func (e *Engine) drainTo(t Time) {
	slot := int(t) & calMask
	i := e.calHead[slot]
	for i != 0 || (len(e.heap) > 0 && e.heap[0].when == t) {
		if i != 0 && (len(e.heap) == 0 || e.heap[0].when != t || e.arena[i].ev.seq < e.heap[0].seq) {
			n := &e.arena[i]
			e.fifo = append(e.fifo, n.ev)
			next := n.next
			// Recycle the node; zero the event so the closure is
			// released for GC while the node sits on the freelist.
			n.ev = event{}
			n.next = e.freeHead
			e.freeHead = i
			i = next
			e.calCount--
		} else {
			e.fifo = append(e.fifo, e.heapPop())
		}
	}
	if e.calHead[slot] != 0 {
		e.calHead[slot] = 0
		e.calTail[slot] = 0
		e.calBits[slot>>6] &^= 1 << uint(slot&63)
	}
}

// refill advances the clock to the earliest pending timestamp and
// drains every event due at that cycle into the FIFO, preserving seq
// order. It reports whether any event became runnable.
func (e *Engine) refill() bool {
	e.fifo = e.fifo[:0]
	e.fifoHead = 0
	t, ok := e.nextEventTime()
	if !ok {
		return false
	}
	e.now = t
	e.drainTo(t)
	return true
}

// nextTime returns the timestamp of the earliest pending event.
func (e *Engine) nextTime() (Time, bool) {
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	return e.nextEventTime()
}

// Step executes the single earliest pending event and advances the clock
// to its timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	if e.fifoHead >= len(e.fifo) && !e.refill() {
		return false
	}
	ev := e.fifo[e.fifoHead]
	e.fifo[e.fifoHead] = event{} // release the closure for GC
	e.fifoHead++
	if e.fifoHead == len(e.fifo) {
		// Fully drained: rewind so same-cycle producer/consumer loops
		// reuse the buffer instead of growing it without bound.
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
	}
	e.Executed++
	e.run(ev)
	return true
}

// RunUntil executes events until the clock would pass t, then sets the
// clock to exactly t. Events scheduled at exactly t are executed.
//
// Unlike Step-driven loops, RunUntil batch-advances: it drains each
// runnable cycle's FIFO back to back (everything in the FIFO is due
// exactly now by construction, so no per-event next-time re-check is
// needed) and only consults the calendar/heap between cycles.
//
// If Stop is called from within an event, RunUntil returns after that
// event without fast-forwarding the clock, leaving the remaining events
// pending; a subsequent Run/RunUntil resumes exactly where it left off.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	if e.now <= t {
		for {
			for e.fifoHead < len(e.fifo) {
				ev := e.fifo[e.fifoHead]
				e.fifo[e.fifoHead] = event{} // release the closure for GC
				e.fifoHead++
				if e.fifoHead == len(e.fifo) {
					e.fifo = e.fifo[:0]
					e.fifoHead = 0
				}
				e.Executed++
				e.run(ev)
				if e.stopped {
					return
				}
			}
			w, ok := e.nextEventTime()
			if !ok || w > t {
				break
			}
			e.now = w
			e.drainTo(w)
		}
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop halts Run/RunUntil after the current event finishes.
func (e *Engine) Stop() { e.stopped = true }
