package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
)

// legacyEventState and legacyEngineState mirror the snapshot layout
// written before events lost their affinity-domain tag: the same fields
// plus Dom. Snapshot files from that layout must keep restoring.
type legacyEventState struct {
	When Time
	Seq  uint64
	Dom  int32
	P    Payload
}

type legacyEngineState struct {
	Now      Time
	Seq      uint64
	Executed uint64
	Events   []legacyEventState
}

// payloadScript seeds e with a self-perpetuating payload workload whose
// successors are derived from the payload alone (so the workload's only
// state is the engine's pending events), with delays that land in the
// same cycle, the calendar ring, and the far heap. Events append to log.
func payloadScript(e *Engine, log *[]string) {
	e.SetExec(func(p Payload) {
		*log = append(*log, fmt.Sprintf("t%d a%d b%d", e.Now(), p.A, p.B))
		if p.B == 0 {
			return
		}
		next := Payload{Kind: KindMCTryIssue, A: p.A, B: p.B - 1}
		e.SchedulePAt(e.Now()+(p.A*7919+p.B*104729)%9000, next)
		if p.B%5 == 0 {
			e.SchedulePAt(e.Now(), Payload{Kind: KindMCTryIssue, A: p.A + 100, B: 0})
		}
	})
	for a := uint64(1); a <= 8; a++ {
		e.SchedulePAt(a*3, Payload{Kind: KindMCTryIssue, A: a, B: 60})
	}
}

// TestRestoreLegacySnapshotWithDom: an engine state gob-encoded through
// the older layout that still carries a Dom field per event decodes
// into today's EngineState (gob ignores fields the receiver lacks) and
// resumes to exactly the uninterrupted run's trace and counters.
func TestRestoreLegacySnapshotWithDom(t *testing.T) {
	const mid, end = 40_000, 1_000_000

	var refLog, log []string
	ref := NewEngine()
	payloadScript(ref, &refLog)
	ref.RunUntil(end)

	first := NewEngine()
	payloadScript(first, &log)
	first.RunUntil(mid)
	st := first.SnapshotState()
	if len(st.Events) == 0 {
		t.Fatal("snapshot caught no pending events")
	}
	legacy := legacyEngineState{Now: st.Now, Seq: st.Seq, Executed: st.Executed}
	for i, ev := range st.Events {
		legacy.Events = append(legacy.Events, legacyEventState{When: ev.When, Seq: ev.Seq, Dom: int32(i % 3), P: ev.P})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var decoded EngineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	resumed := NewEngine()
	// Installs the dispatcher, continuing the first leg's log; the
	// seed events are discarded by RestoreState.
	payloadScript(resumed, &log)
	resumed.RestoreState(&decoded)
	resumed.RunUntil(end)

	if !reflect.DeepEqual(log, refLog) {
		t.Fatalf("resumed trace diverged: %d vs %d events", len(log), len(refLog))
	}
	if resumed.Executed != ref.Executed || resumed.Now() != ref.Now() || pending(resumed) != pending(ref) {
		t.Fatalf("resumed engine (executed %d, now %d, pending %d) != reference (%d, %d, %d)",
			resumed.Executed, resumed.Now(), pending(resumed), ref.Executed, ref.Now(), pending(ref))
	}
}
