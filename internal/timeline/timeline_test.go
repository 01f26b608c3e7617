package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRoundTrip emits a representative mix of events and checks the
// serialised file decodes back field-for-field through the validating
// decoder (and through encoding/json on its own, proving the
// hand-rolled writer produces legal JSON).
func TestRoundTrip(t *testing.T) {
	r := NewRecorder(nil, 16)
	r.SetProcessName(PidCPU, "cpu")
	r.SetThreadName(PidCPU, 0, "core0")
	r.Emit(Event{Ph: PhaseSpan, Ts: 10, Dur: 5, Pid: PidCPU, Tid: 0, Name: "quantum",
		Arg1Name: "task", Arg1: -1, Arg2Name: "skipped", Arg2: 3})
	r.Instant(PidCPU, 0, "skip", 15)
	r.Emit(Event{Ph: PhaseSpan, Ts: 20, Dur: 2, Pid: 2, Tid: 7, Name: `odd "name"`,
		StrName: "req", Str: "req-000001"})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var anyJSON map[string]any
	if err := json.Unmarshal(buf.Bytes(), &anyJSON); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.Bytes())
	}

	events, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 5 { // 2 meta + 3 ring
		t.Fatalf("decoded %d events, want 5", len(events))
	}
	if events[0].Ph != "M" || events[0].Name != "process_name" || events[0].Args["name"] != "cpu" {
		t.Errorf("meta[0] = %+v, want process_name cpu", events[0])
	}
	span := events[2]
	if span.Name != "quantum" || span.Ph != "X" || *span.Ts != 10 || *span.Dur != 5 {
		t.Errorf("span = %+v", span)
	}
	if span.Args["task"] != float64(-1) || span.Args["skipped"] != float64(3) {
		t.Errorf("span args = %v", span.Args)
	}
	inst := events[3]
	if inst.Ph != "i" || inst.Scope != "t" || *inst.Ts != 15 {
		t.Errorf("instant = %+v", inst)
	}
	str := events[4]
	if str.Name != `odd "name"` || str.Args["req"] != "req-000001" {
		t.Errorf("string-arg span = %+v", str)
	}
	if err := CheckMonotone(events); err != nil {
		t.Error(err)
	}
}

// TestRingOverwrite fills a tiny ring past capacity and checks the
// oldest events are dropped, the drop count is reported, and the
// survivors come out in order.
func TestRingOverwrite(t *testing.T) {
	r := NewRecorder(nil, 4)
	for i := 0; i < 10; i++ {
		r.Span(1, 0, "e", uint64(i), 1)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if want := uint64(6 + i); *e.Ts != want {
			t.Errorf("event %d ts = %d, want %d", i, *e.Ts, want)
		}
	}
}

// TestWriteSortsPerTrack emits events out of timestamp order (the
// service emits request spans at completion, not start) and checks
// the file comes out monotone per track, with same-timestamp events
// kept in emission order.
func TestWriteSortsPerTrack(t *testing.T) {
	r := NewRecorder(nil, 8)
	r.Span(1, 0, "late-start", 50, 10) // emitted first, starts later
	r.Span(1, 0, "early-start", 0, 100)
	r.Instant(1, 1, "first-at-5", 5)
	r.Instant(1, 1, "second-at-5", 5)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotone(events); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	want := []string{"early-start", "first-at-5", "second-at-5", "late-start"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("file order %v, want %v", names, want)
		}
	}
}

// TestDecodeRejectsMalformed checks the validating decoder refuses
// the failure modes a hand-edited or truncated file would exhibit.
func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents":[`,
		"no traceEvents":  `{"events":[]}`,
		"empty name":      `{"traceEvents":[{"name":"","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"unknown phase":   `{"traceEvents":[{"name":"e","ph":"Q","ts":1,"pid":1,"tid":1}]}`,
		"span sans dur":   `{"traceEvents":[{"name":"e","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"instant sans ts": `{"traceEvents":[{"name":"e","ph":"i","pid":1,"tid":1}]}`,
		"unknown field":   `{"traceEvents":[{"name":"e","ph":"i","ts":1,"pid":1,"tid":1,"bogus":2}]}`,
	}
	for label, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Decode accepted %s", label, in)
		}
	}
}

// TestCheckMonotone checks the per-track invariant checker flags
// regressions on one track but tolerates interleaved tracks.
func TestCheckMonotone(t *testing.T) {
	ts := func(v uint64) *uint64 { return &v }
	ok := []DecodedEvent{
		{Name: "a", Ph: "X", Ts: ts(10), Dur: ts(1), Pid: 1, Tid: 0},
		{Name: "b", Ph: "X", Ts: ts(5), Dur: ts(1), Pid: 1, Tid: 1}, // other track: fine
		{Name: "c", Ph: "i", Ts: ts(10), Pid: 1, Tid: 0},            // equal ts: fine
	}
	if err := CheckMonotone(ok); err != nil {
		t.Errorf("CheckMonotone(ok) = %v", err)
	}
	bad := append(append([]DecodedEvent(nil), ok...),
		DecodedEvent{Name: "d", Ph: "i", Ts: ts(9), Pid: 1, Tid: 0})
	if err := CheckMonotone(bad); err == nil {
		t.Error("CheckMonotone missed a regression")
	}
}

// TestEmitDoesNotAllocate pins the enabled-path emit into a full ring
// at zero allocations: the ring holds value-type events and the strings
// are interned by the caller, so tracing costs a mutex and a copy. The
// ring is filled first, since one still growing allocates as it
// appends.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := NewRecorder(nil, 1024)
	e := Event{Ph: PhaseSpan, Ts: 1, Dur: 2, Pid: 1, Tid: 3, Name: "refresh",
		Arg1Name: "rows", Arg1: 8}
	for r.Len() < 1024 {
		r.Emit(e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(e)
		r.Instant(1, 3, "skip", 9)
	})
	if allocs != 0 {
		t.Fatalf("emit allocates %v allocs/op, want 0", allocs)
	}
}

// TestRingGrowsOnDemand: a recorder holding a few events has not grown
// to its capacity, and one filled to it holds exactly its capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	r := NewRecorder(nil, 1024)
	for i := 0; i < 3; i++ {
		r.Instant(1, 0, "e", uint64(i))
	}
	if got := cap(r.ring); got >= 1024 {
		t.Fatalf("a ring holding 3 events has grown to %d, want well below its capacity of 1024", got)
	}
	for i := 0; i < 2000; i++ {
		r.Instant(1, 0, "e", uint64(i))
	}
	if r.Len() != 1024 || r.Dropped() != 2003-1024 {
		t.Fatalf("Len %d, Dropped %d; want 1024 and %d", r.Len(), r.Dropped(), 2003-1024)
	}
}

// TestDeterministicBytes replays the same event sequence twice and
// requires byte-identical output, the property the fixed-seed
// simulator determinism test leans on.
func TestDeterministicBytes(t *testing.T) {
	build := func() []byte {
		r := NewRecorder(nil, 64)
		r.SetProcessName(1, "p")
		for i := 0; i < 40; i++ {
			r.Emit(Event{Ph: PhaseSpan, Ts: uint64(i % 7), Dur: 1, Pid: 1, Tid: int32(i % 3),
				Name: "e", Arg1Name: "i", Arg1: int64(i)})
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatal("same event sequence serialised to different bytes")
	}
}
