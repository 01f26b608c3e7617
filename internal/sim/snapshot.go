package sim

import (
	"fmt"
	"sort"
)

// Engine checkpoint/restore.
//
// An engine is snapshottable when every pending event is a payload
// event (fn == nil): payloads are plain data, so the full event
// population — FIFO, calendar ring, and far-event heap — flattens into
// a sorted []EventState and reconstitutes exactly, preserving each
// event's original (when, seq) and therefore the strict execution
// order. A pending closure event cannot be serialized and makes the
// snapshot fail with a typed *ClosureEventError naming the offender, so
// a layer that forgot to reify one of its event types is caught the
// first time a checkpoint is attempted, not by silent divergence.

// EventState is one pending event in serializable form.
type EventState struct {
	When Time
	Seq  uint64
	P    Payload
}

// EngineState is the full serializable state of an Engine.
type EngineState struct {
	Now      Time
	Seq      uint64
	Executed uint64
	Events   []EventState // sorted by (When, Seq)
}

// ClosureEventError reports a pending event that carries a Go closure
// and therefore cannot be checkpointed.
type ClosureEventError struct {
	When Time
	Seq  uint64
}

func (e *ClosureEventError) Error() string {
	return fmt.Sprintf("sim: pending closure event at t=%d seq=%d cannot be snapshotted (not payload-reified)", e.When, e.Seq)
}

// SnapshotState captures the engine's complete pending-event state.
// It fails if any pending event is a closure.
func (e *Engine) SnapshotState() (*EngineState, error) {
	st := &EngineState{Now: e.now, Seq: e.seq, Executed: e.Executed}
	add := func(ev event) error {
		if ev.fn != nil {
			return &ClosureEventError{When: ev.when, Seq: ev.seq}
		}
		st.Events = append(st.Events, EventState{When: ev.when, Seq: ev.seq, P: ev.p})
		return nil
	}
	for _, ev := range e.fifo[e.fifoHead:] {
		if err := add(ev); err != nil {
			return nil, err
		}
	}
	for slot := 0; slot < calHorizon; slot++ {
		for i := e.calHead[slot]; i != 0; i = e.arena[i].next {
			if err := add(e.arena[i].ev); err != nil {
				return nil, err
			}
		}
	}
	for _, ev := range e.heap {
		if err := add(ev); err != nil {
			return nil, err
		}
	}
	sort.Slice(st.Events, func(i, j int) bool {
		a, b := st.Events[i], st.Events[j]
		if a.When != b.When {
			return a.When < b.When
		}
		return a.Seq < b.Seq
	})
	return st, nil
}

// RestoreState discards every pending event and replaces the engine's
// clock, sequence counter, and event population with st's. Events are
// re-inserted with their original seq numbers, so the restored engine
// executes the exact (when, seq) order the snapshotted one would have.
func (e *Engine) RestoreState(st *EngineState) {
	// Clear all three stores (the freshly built system may have seeded
	// construction-time events, e.g. the first refresh ticks).
	e.fifo = e.fifo[:0]
	e.fifoHead = 0
	e.calHead = [calHorizon]int32{}
	e.calTail = [calHorizon]int32{}
	e.calBits = [calWords]uint64{}
	e.calCount = 0
	e.arena = e.arena[:0]
	e.freeHead = 0
	e.heap = e.heap[:0]

	e.now = st.Now
	for _, es := range st.Events {
		ev := event{when: es.When, seq: es.Seq, p: es.P}
		switch {
		case es.When == e.now:
			e.fifo = append(e.fifo, ev)
		case es.When-e.now < calHorizon:
			// st.Events is (when, seq)-sorted and bucket slots map to
			// unique timestamps, so append order keeps chains seq-sorted.
			e.calPush(ev)
		default:
			e.heapPush(ev)
		}
	}
	e.seq = st.Seq
	e.Executed = st.Executed
}
