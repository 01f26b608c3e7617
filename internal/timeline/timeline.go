// Package timeline is a low-overhead span/instant event tracer that
// emits Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// The recorder is a bounded ring of value-type events guarded by a
// mutex. It grows by append up to its capacity, so a recorder that
// holds a few events costs a few events; once full, emitting never
// allocates and overwrites the oldest event (the drop count is
// reported). The
// intended disabled path is a nil *Recorder check at every
// instrumentation site, so an un-attached simulation pays a single
// predictable branch per would-be event and zero allocations.
//
// Timestamps are written to the trace's "ts" field verbatim, which
// Chrome/Perfetto interpret as microseconds. Simulator traces emit
// simulated DRAM cycles as integer microseconds (1 cycle = 1 us of
// trace time); service traces emit wall-clock microseconds since job
// creation. Tracks are addressed by (pid, tid) pairs; the repo-wide
// numbering convention lives with the constants below and in
// DESIGN.md.
package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Track numbering conventions. Simulator traces group simulated cores
// under one process and each DRAM channel under its own; service
// traces group HTTP/job bookkeeping under one process and simulation
// cell lanes under another. The two conventions never share a file.
const (
	// PidCPU is the process id of the simulated-core track group: one
	// thread per core, carrying task quantum spans and skip instants.
	PidCPU = 1
	// PidDRAMBase plus the channel index is the process id of that
	// channel's track group: one thread per global bank, carrying
	// refresh busy slots and refresh-stalled read spans.
	PidDRAMBase = 100
)

// Event phases, per the Chrome trace-event format.
const (
	PhaseSpan    = 'X' // complete span: needs Ts and Dur
	PhaseInstant = 'i' // instant: needs Ts
	PhaseMeta    = 'M' // metadata: process_name / thread_name
)

// Event is one trace event. It is a fixed-size value type so a full
// ring never allocates on emit: up to two integer args and one
// string arg ride in dedicated slots (an empty arg name means the
// slot is unused). Name strings are expected to be static or
// pre-existing (interned) so that emitting does not allocate either.
type Event struct {
	Ph   byte   // PhaseSpan or PhaseInstant
	Ts   uint64 // microseconds
	Dur  uint64 // span length; spans only
	Pid  int32
	Tid  int32
	Name string

	Arg1Name string
	Arg1     int64
	Arg2Name string
	Arg2     int64
	StrName  string
	Str      string
}

// metaEvent is a process_name or thread_name metadata record. These
// are kept outside the ring so track names survive any wrap.
type metaEvent struct {
	pid, tid int32
	thread   bool // thread_name if set, process_name otherwise
	name     string
}

// DefaultCap is the ring capacity used when NewRecorder is given a
// non-positive capacity. At ~128Ki events it comfortably holds a
// quick-preset measurement window.
const DefaultCap = 1 << 17

// Recorder accumulates events into a bounded ring. It is safe for
// concurrent use; the simulator drives it from one goroutine, the
// service from many.
type Recorder struct {
	mu       sync.Mutex
	w        io.Writer // Flush target; may be nil (WriteTo-only use)
	ring     []Event   // grows by append to capacity, then wraps
	capacity int
	next     int // once the ring is full, the index of its oldest event
	dropped  uint64
	meta     []metaEvent
}

// NewRecorder returns a recorder holding at most capacity events
// (DefaultCap if capacity <= 0). The ring is not allocated up front: it
// grows as events arrive. w is the Flush target and may be nil when the
// caller serves the trace itself via WriteTo.
func NewRecorder(w io.Writer, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{w: w, capacity: capacity}
}

// SetProcessName names the (pid) track group in trace viewers.
func (r *Recorder) SetProcessName(pid int32, name string) {
	r.mu.Lock()
	r.meta = append(r.meta, metaEvent{pid: pid, name: name})
	r.mu.Unlock()
}

// SetThreadName names the (pid, tid) track in trace viewers.
func (r *Recorder) SetThreadName(pid, tid int32, name string) {
	r.mu.Lock()
	r.meta = append(r.meta, metaEvent{pid: pid, tid: tid, thread: true, name: name})
	r.mu.Unlock()
}

// Emit records one event, overwriting the oldest if the ring is full.
// Only a ring still growing to its capacity allocates.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % r.capacity
		r.dropped++
	}
	r.mu.Unlock()
}

// Span records a complete span on track (pid, tid).
func (r *Recorder) Span(pid, tid int32, name string, ts, dur uint64) {
	r.Emit(Event{Ph: PhaseSpan, Ts: ts, Dur: dur, Pid: pid, Tid: tid, Name: name})
}

// Instant records a zero-duration marker on track (pid, tid).
func (r *Recorder) Instant(pid, tid int32, name string, ts uint64) {
	r.Emit(Event{Ph: PhaseInstant, Ts: ts, Pid: pid, Tid: tid, Name: name})
}

// Len reports the number of events currently held in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Dropped reports how many events were overwritten after the ring
// filled.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Flush writes the trace to the writer given to NewRecorder. It is a
// no-op when the recorder has no writer.
func (r *Recorder) Flush() error {
	if r.w == nil {
		return nil
	}
	_, err := r.WriteTo(r.w)
	return err
}

// WriteTo serialises the trace as a Chrome trace-event JSON object:
// metadata records first, then the ring's events stably sorted by
// timestamp. The sort guarantees timestamps are monotone per track in
// file order regardless of emission order (the service emits request
// spans at completion time), and stability keeps same-timestamp
// events in emission order. Output is deterministic for a
// deterministic event sequence.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	events := make([]Event, 0, len(r.ring))
	events = append(events, r.ring[r.next:]...)
	events = append(events, r.ring[:r.next]...)
	meta := append([]metaEvent(nil), r.meta...)
	r.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })

	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	var scratch []byte
	for _, m := range meta {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		kind, tid := "process_name", ""
		if m.thread {
			kind = "thread_name"
			tid = `,"tid":` + strconv.Itoa(int(m.tid))
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"M","pid":%d%s,"args":{"name":%s}}`,
			kind, m.pid, tid, strconv.Quote(m.name))
	}
	for i := range events {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		scratch = appendEvent(scratch[:0], &events[i])
		bw.Write(scratch)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// appendEvent serialises one ring event into buf.
func appendEvent(buf []byte, e *Event) []byte {
	buf = append(buf, `{"name":`...)
	buf = strconv.AppendQuote(buf, e.Name)
	buf = append(buf, `,"ph":"`...)
	buf = append(buf, e.Ph)
	buf = append(buf, `","ts":`...)
	buf = strconv.AppendUint(buf, e.Ts, 10)
	if e.Ph == PhaseSpan {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendUint(buf, e.Dur, 10)
	}
	buf = append(buf, `,"pid":`...)
	buf = strconv.AppendInt(buf, int64(e.Pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, int64(e.Tid), 10)
	if e.Ph == PhaseInstant {
		// Thread-scoped instants render as small arrows on their track.
		buf = append(buf, `,"s":"t"`...)
	}
	if e.Arg1Name != "" || e.StrName != "" {
		buf = append(buf, `,"args":{`...)
		comma := false
		if e.Arg1Name != "" {
			buf = strconv.AppendQuote(buf, e.Arg1Name)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, e.Arg1, 10)
			comma = true
		}
		if e.Arg2Name != "" {
			if comma {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, e.Arg2Name)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, e.Arg2, 10)
			comma = true
		}
		if e.StrName != "" {
			if comma {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, e.StrName)
			buf = append(buf, ':')
			buf = strconv.AppendQuote(buf, e.Str)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}')
	return buf
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DecodedEvent is one event as read back by Decode. Args carries the
// decoded args object (numbers come back as float64, per
// encoding/json).
type DecodedEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    *uint64        `json:"ts,omitempty"`
	Dur   *uint64        `json:"dur,omitempty"`
	Pid   int32          `json:"pid"`
	Tid   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Decode reads a Chrome trace-event JSON object and validates every
// event: the phase must be X, i, or M; names must be non-empty; spans
// and instants must carry a timestamp and spans a duration. It is the
// timeline analogue of the Prometheus-exposition round-trip parser:
// strict enough that a passing decode certifies the file loads in
// Perfetto.
func Decode(r io.Reader) ([]DecodedEvent, error) {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&top); err != nil {
		return nil, fmt.Errorf("timeline: not a trace-event JSON object: %w", err)
	}
	if top.TraceEvents == nil {
		return nil, errors.New(`timeline: missing "traceEvents" array`)
	}
	out := make([]DecodedEvent, 0, len(top.TraceEvents))
	for i, raw := range top.TraceEvents {
		var e DecodedEvent
		d := json.NewDecoder(bytes.NewReader(raw))
		d.DisallowUnknownFields()
		if err := d.Decode(&e); err != nil {
			return nil, fmt.Errorf("timeline: event %d: %w", i, err)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("timeline: event %d: empty name", i)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || e.Dur == nil {
				return nil, fmt.Errorf("timeline: event %d (%s): span without ts/dur", i, e.Name)
			}
		case "i":
			if e.Ts == nil {
				return nil, fmt.Errorf("timeline: event %d (%s): instant without ts", i, e.Name)
			}
		case "M":
			// Metadata: no timestamp required.
		default:
			return nil, fmt.Errorf("timeline: event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		out = append(out, e)
	}
	return out, nil
}

// CheckMonotone verifies that non-metadata event timestamps are
// nondecreasing per (pid, tid) track in file order, the invariant
// WriteTo's stable sort establishes.
func CheckMonotone(events []DecodedEvent) error {
	last := make(map[[2]int32]uint64)
	for i, e := range events {
		if e.Ph == "M" || e.Ts == nil {
			continue
		}
		key := [2]int32{e.Pid, e.Tid}
		if prev, ok := last[key]; ok && *e.Ts < prev {
			return fmt.Errorf("timeline: event %d (%s): ts %d before %d on track pid=%d tid=%d",
				i, e.Name, *e.Ts, prev, e.Pid, e.Tid)
		}
		last[key] = *e.Ts
	}
	return nil
}
