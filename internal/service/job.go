package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refsched/internal/harness"
	"refsched/internal/runner"
	"refsched/internal/timeline"
)

// Service-timeline track numbering (wall-clock traces; disjoint from
// the simulator convention in internal/timeline). One process groups
// the HTTP/job bookkeeping tracks, another the simulation cell lanes.
const (
	tlPidService  = 1
	tlTidRequests = 0 // HTTP request spans, correlated by request id
	tlTidJob      = 1 // queued/run spans, cache and dedup instants
	tlTidGate     = 2 // cell-gate admission instants
	tlPidCells    = 2 // one thread per concurrent cell lane
)

// newJobTimeline builds a job's always-on recorder. Timestamps are
// wall-clock microseconds since the job was created. The ring is
// bounded (events beyond it drop oldest-first) and grows only as events
// arrive: a job's event count is a handful of request/job spans plus
// two per simulated cell, a cache hit records two or three, and up to
// finishedRetain finished jobs stay resident.
func newJobTimeline(id string) *timeline.Recorder {
	rec := timeline.NewRecorder(nil, 1024)
	rec.SetProcessName(tlPidService, "refschedd")
	rec.SetThreadName(tlPidService, tlTidRequests, "requests")
	rec.SetThreadName(tlPidService, tlTidJob, "job "+id)
	rec.SetThreadName(tlPidService, tlTidGate, "cell gate")
	rec.SetProcessName(tlPidCells, "simulation cells")
	return rec
}

// Request is the body of POST /v1/jobs: exactly one of Figure (a CLI
// target such as "fig10") or Cell (one fully addressed simulation
// cell), plus an optional priority and parameter overrides applied on
// top of the daemon's base parameters.
type Request struct {
	Figure   string          `json:"figure,omitempty"`
	Cell     *CellSpec       `json:"cell,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Params   *ParamOverrides `json:"params,omitempty"`
	// DeadlineMS bounds the job's total lifetime — queue wait plus
	// execution — in milliseconds from admission. A job whose deadline
	// passes while queued is shed without burning a worker; one whose
	// deadline passes mid-run is hard-cancelled at the next engine
	// checkpoint. Either way it lands in JobExpired. Zero means no
	// deadline. The deadline is not part of the cache key, and a
	// request coalesced onto an in-flight job keeps that job's
	// deadline, not its own.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CellSpec addresses one simulation cell the way the figures name
// them: Table 2 mix, device density, policy bundle, and retention
// temperature regime. Under the request's parameters it resolves to a
// harness.CellSpec (harness.Params.Cell), whose Key the job is cached
// and deduplicated under.
type CellSpec struct {
	Mix     string `json:"mix"`
	Density string `json:"density"`
	Bundle  string `json:"bundle"`
	Hot     bool   `json:"hot,omitempty"`
}

// ParamOverrides selectively overrides the daemon's base simulation
// parameters for one request. Every field here changes the simulated
// result (or which cells a figure sweeps), so all of them feed the
// cache key.
type ParamOverrides struct {
	Scale          *uint64  `json:"scale,omitempty"`
	FootprintScale *float64 `json:"footprint_scale,omitempty"`
	WarmupWindows  *int     `json:"warmup_windows,omitempty"`
	MeasureWindows *int     `json:"measure_windows,omitempty"`
	Seed           *uint64  `json:"seed,omitempty"`
	Mixes          []string `json:"mixes,omitempty"`
	// Mode selects the simulation tier ("exact" or "approx"; see
	// harness.Params.Mode). Approx results are cached under their own
	// fingerprint, never satisfying an exact request.
	Mode *string `json:"mode,omitempty"`
}

// apply overlays o on base. The daemon-side knobs (parallelism,
// journaling, chaos, verbosity) are deliberately not overridable.
func (o *ParamOverrides) apply(base harness.Params) harness.Params {
	if o == nil {
		return base
	}
	if o.Scale != nil {
		base.Scale = *o.Scale
	}
	if o.FootprintScale != nil {
		base.FootprintScale = *o.FootprintScale
	}
	if o.WarmupWindows != nil {
		base.WarmupWindows = *o.WarmupWindows
	}
	if o.MeasureWindows != nil {
		base.MeasureWindows = *o.MeasureWindows
	}
	if o.Seed != nil {
		base.Seed = *o.Seed
	}
	if o.Mixes != nil {
		base.Mixes = o.Mixes
	}
	if o.Mode != nil {
		base.Mode = *o.Mode
	}
	return base
}

// figureKey is a figure request's key: the harness parameter
// fingerprint (every knob that changes a cell's simulated result)
// extended with the figure and the mix selection, which changes which
// cells the figure renders.
func figureKey(figure string, p harness.Params) string {
	return fmt.Sprintf("fig|%s|mixes=%s|%s", figure, strings.Join(p.Mixes, ","), p.Fingerprint())
}

// JobState is the lifecycle of a job as GET /v1/jobs/{id} reports it.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	// JobDone: the result is available (and, for clean runs, cached).
	JobDone JobState = "done"
	// JobQuarantined: the sweep completed but some cells failed; the
	// rendered result includes the failure-summary table and the typed
	// per-cell detail is in the status payload.
	JobQuarantined JobState = "quarantined"
	// JobFailed: the job produced no result (bad request resolved at
	// run time, cancellation, a watchdog kill, or a fail-fast/
	// sweep-level error).
	JobFailed JobState = "failed"
	// JobExpired: the request's deadline elapsed before the job could
	// produce a result — either while it sat queued (shed without
	// running) or mid-execution (hard-cancelled at an engine
	// checkpoint). Expired is a terminal answer, not a loss: the job
	// stays addressable and reports why it produced nothing.
	JobExpired JobState = "expired"
	// JobPreempted: a higher-priority arrival displaced this running
	// job at a checkpoint boundary. Not terminal — the job is back on
	// the queue with its mid-cell snapshots held, and its next run
	// resumes from them instead of recomputing.
	JobPreempted JobState = "preempted"
)

// CellFailure is the wire form of a quarantined cell's typed error
// detail.
type CellFailure struct {
	Cell   string `json:"cell"`
	Seed   uint64 `json:"seed"`
	Kind   string `json:"kind"` // "error" or "panic"
	Detail string `json:"detail"`
}

func cellFailure(ce *runner.CellError) CellFailure {
	f := CellFailure{Cell: ce.Cell.String(), Seed: ce.Cell.Seed}
	f.Kind, f.Detail = ce.Cause()
	return f
}

// JobStatus is the GET /v1/jobs/{id} payload.
type JobStatus struct {
	ID          string        `json:"id"`
	State       JobState      `json:"state"`
	Figure      string        `json:"figure,omitempty"`
	Cell        *CellSpec     `json:"cell,omitempty"`
	Priority    int           `json:"priority"`
	Tenant      string        `json:"tenant,omitempty"`
	DeadlineAt  *time.Time    `json:"deadline_at,omitempty"`
	CreatedAt   time.Time     `json:"created_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	CacheHit    bool          `json:"cache_hit,omitempty"`
	Deduped     int           `json:"deduped,omitempty"`
	CellsDone   int           `json:"cells_done"`
	CellsTotal  int           `json:"cells_total"`
	Preemptions int           `json:"preemptions,omitempty"`
	ResultBytes int           `json:"result_bytes,omitempty"`
	Error       string        `json:"error,omitempty"`
	Quarantined []CellFailure `json:"quarantined,omitempty"`
}

// job is one unit of work on the daemon's queue. Identical concurrent
// requests (same requestKey) coalesce onto one job — the single-flight
// guarantee — so a job may be answering many waiters.
type job struct {
	id     string
	key    string
	figure string // canonical figure name, or "cell"
	req    Request
	// params are the job's simulation parameters. params.Store holds
	// the job's mid-cell snapshots and finished-cell reports; it is made
	// once at enqueue and kept through requeues, so a job preempted
	// twice still resumes from its furthest checkpoint. An approx job
	// has one too, for the cells it runs exact (fig4's bank-confined
	// ones).
	params   harness.Params
	priority int
	seq      uint64 // queue tiebreak: FIFO within a priority
	created  time.Time
	tenant   string
	// deadline is the absolute admission deadline (zero: none). It is
	// fixed at enqueue (or preserved across a WAL-replayed restart), so
	// a recovered job keeps the wall-clock promise made to its client.
	deadline time.Time

	hub  *eventHub
	done chan struct{} // closed exactly once, when the job finishes

	// tl is the job's wall-clock timeline (GET /v1/jobs/{id}/timeline):
	// request spans, queue/run spans, gate admissions, and per-cell
	// simulation spans, correlated by request id. reqID is the id of
	// the HTTP request that created the job.
	tl    *timeline.Recorder
	reqID string

	// engineEvents accumulates the discrete events executed by the
	// job's completed cells (core.Report.Events), the numerator of the
	// per-running-job engine-throughput gauge. Approx-mode cells
	// contribute zero — the analytical model runs no events.
	engineEvents atomic.Uint64

	// boundaries counts checkpoint boundaries crossed by the job's exact
	// cells, one every four timeslices. Each is a point where a
	// preemption request can land, and each counts as progress to the
	// watchdog, so a long healthy cell is never mistaken for a stall.
	boundaries atomic.Uint64

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	// softCancel/hardCancel abort the in-flight run (armed by execute
	// for the duration of the run). Soft lets in-flight cells finish;
	// hard aborts them at the next run-leg boundary and interrupts
	// injected chaos stalls. killErr records why the watchdog (or any
	// future killer) fired; it wins the post-run state classification.
	softCancel func()
	hardCancel func()
	armGen     uint64
	killErr    error
	// preempt is the pending preemption request: set by requestPreempt,
	// observed by the run's boundary callback, cleared when the job is
	// requeued. preemptions counts how many times the job was displaced.
	preempt     bool
	preemptions int
	// tenantHeld marks that this job owns one slot of its tenant's
	// in-flight budget, released exactly once when the job finishes.
	tenantHeld bool
	// walAccepted marks that this job has a durable accept record in
	// the job WAL, so finishing must append the matching done record.
	walAccepted bool
	err         error
	failures    []*runner.CellError
	body        []byte
	cacheHit    bool
	deduped     int
	cellsDone   int
	cellsTotal  int
	// lanes allocates cell-span tracks: a cell holds one lane for its
	// whole run, so per-lane timestamps are naturally monotone.
	lanes []bool
}

// sinceUS is the job-timeline clock: wall microseconds since creation.
func (j *job) sinceUS() uint64 {
	if d := time.Since(j.created); d > 0 {
		return uint64(d.Microseconds())
	}
	return 0
}

// tsUS converts an absolute time to the job-timeline clock, clamping
// times before creation (the creating HTTP request starts first) to 0.
func (j *job) tsUS(t time.Time) uint64 {
	if d := t.Sub(j.created); d > 0 {
		return uint64(d.Microseconds())
	}
	return 0
}

// acquireLane claims the lowest free cell lane, naming it on first use.
func (j *job) acquireLane() int32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, used := range j.lanes {
		if !used {
			j.lanes[i] = true
			return int32(i)
		}
	}
	j.lanes = append(j.lanes, true)
	lane := int32(len(j.lanes) - 1)
	j.tl.SetThreadName(tlPidCells, lane, fmt.Sprintf("lane%d", lane))
	return lane
}

func (j *job) releaseLane(lane int32) {
	j.mu.Lock()
	j.lanes[lane] = false
	j.mu.Unlock()
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	// The queue-wait span covers creation to start of execution.
	j.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: 0, Dur: j.sinceUS(),
		Pid: tlPidService, Tid: tlTidJob, Name: "queued",
		StrName: "req", Str: j.reqID})
	j.hub.publish(map[string]any{"event": "state", "job": j.id, "state": JobRunning})
}

// setCells is called by the injected cell runner once the sweep's grid
// is enumerated.
func (j *job) setCells(total int) {
	j.mu.Lock()
	j.cellsTotal += total
	j.mu.Unlock()
}

// throughput reports the job's engine event throughput while it runs:
// events executed by completed cells over wall time since execution
// started. ok is false unless the job is mid-run.
func (j *job) throughput() (t JobThroughput, ok bool) {
	j.mu.Lock()
	state, started := j.state, j.started
	done, total := j.cellsDone, j.cellsTotal
	j.mu.Unlock()
	if state != JobRunning || started.IsZero() {
		return JobThroughput{}, false
	}
	secs := time.Since(started).Seconds()
	if secs <= 0 {
		return JobThroughput{}, false
	}
	ev := j.engineEvents.Load()
	return JobThroughput{
		ID: j.id, Figure: j.figure,
		Events: ev, EventsPerSec: float64(ev) / secs,
		CellsDone: done, CellsTotal: total,
	}, true
}

// JobThroughput is one running job's engine-throughput sample, exposed
// per job in /statsz and aggregated per figure in /metricsz.
type JobThroughput struct {
	ID           string  `json:"id"`
	Figure       string  `json:"figure"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	CellsDone    int     `json:"cells_done"`
	CellsTotal   int     `json:"cells_total"`
}

// cellDone publishes one cell completion (called from the runner's
// single collector goroutine).
func (j *job) cellDone(c runner.Cell) {
	j.mu.Lock()
	j.cellsDone++
	done, total := j.cellsDone, j.cellsTotal
	j.mu.Unlock()
	j.hub.publish(map[string]any{
		"event": "cell", "job": j.id, "cell": c.String(), "done": done, "total": total,
	})
}

// arm installs the run's cancellation hooks and returns a generation
// token; disarm removes them when the run returns (so a late watchdog
// scan cannot cancel a context that has already been recycled). The
// token makes disarm a no-op when a newer run has re-armed meanwhile —
// a preempted job is back on the queue before its old run finishes
// unwinding, and the unwinding run must not strip the hooks the next
// one installed.
func (j *job) arm(soft, hard func()) uint64 {
	j.mu.Lock()
	j.armGen++
	gen := j.armGen
	j.softCancel, j.hardCancel = soft, hard
	j.mu.Unlock()
	return gen
}

func (j *job) disarm(gen uint64) {
	j.mu.Lock()
	if j.armGen == gen {
		j.softCancel, j.hardCancel = nil, nil
	}
	j.mu.Unlock()
}

// kill aborts a running job: it records why and fires both cancellation
// paths (hard first, so stalled cells abort instead of finishing
// gracefully). It reports whether this call was the one that killed the
// job — false if it was not running or already being killed.
func (j *job) kill(err error) bool {
	j.mu.Lock()
	if j.state != JobRunning || j.killErr != nil {
		j.mu.Unlock()
		return false
	}
	j.killErr = err
	soft, hard := j.softCancel, j.hardCancel
	j.mu.Unlock()
	if hard != nil {
		hard()
	}
	if soft != nil {
		soft()
	}
	return true
}

// requestPreempt asks a running job to yield at its next checkpoint
// boundary. It fires only the soft cancel: in-flight cells reach their
// next boundary, snapshot into the job's store, and abort with the
// preemption sentinel — a hard cancel would skip the snapshot and turn
// the preemption into a recompute. Returns whether this call posted
// the request (false if the job is not running, is being killed, or a
// preemption is already pending).
func (j *job) requestPreempt() bool {
	j.mu.Lock()
	if j.state != JobRunning || j.killErr != nil || j.preempt {
		j.mu.Unlock()
		return false
	}
	j.preempt = true
	j.preemptions++
	soft := j.softCancel
	j.mu.Unlock()
	if soft != nil {
		soft()
	}
	return true
}

// errPreempted is the error a preempted run aborts with: the job's
// boundary poll returns it once a preemption is requested, after which
// the cell's snapshot is in the job's store; execute classifies the
// unwound run as JobPreempted and requeues the job instead of failing
// it.
var errPreempted = errors.New("service: job preempted at checkpoint boundary")

// pollPreempt is the checkpoint-boundary poll of the job's CellStore.
func (j *job) pollPreempt() error {
	j.boundaries.Add(1)
	if j.preemptRequested() {
		return errPreempted
	}
	return nil
}

// preemptRequested reports whether a preemption request is pending.
func (j *job) preemptRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.preempt
}

// killed returns the kill reason, nil if the job was never killed.
func (j *job) killed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.killErr
}

// pastDeadline reports whether the job has a deadline and it has
// elapsed.
func (j *job) pastDeadline() bool {
	return !j.deadline.IsZero() && !time.Now().Before(j.deadline)
}

// progress returns the job's watchdog signature and whether the job is
// currently running. The signature is the sum of three counters that
// only grow while the job runs — events executed by completed cells,
// completed cells, and checkpoint boundaries crossed — so it changes
// whenever any of them advances. A signature frozen across the
// watchdog's stall bound is the definition of a stalled job.
func (j *job) progress() (sig uint64, running bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return 0, false
	}
	return j.engineEvents.Load() + uint64(j.cellsDone) + j.boundaries.Load(), true
}

// addDeduped counts one more request coalesced onto this job.
func (j *job) addDeduped() {
	j.mu.Lock()
	j.deduped++
	j.mu.Unlock()
}

// finish moves the job to a terminal state, publishes the final event,
// closes the hub, and wakes all waiters.
func (j *job) finish(state JobState, body []byte, failures []*runner.CellError, err error, cacheHit bool) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.body = body
	j.failures = failures
	j.err = err
	j.cacheHit = cacheHit
	j.mu.Unlock()

	ev := map[string]any{"event": "done", "job": j.id, "state": state}
	if err != nil {
		ev["error"] = err.Error()
	}
	if len(failures) > 0 {
		ev["quarantined"] = len(failures)
	}
	if cacheHit {
		ev["cache"] = "hit"
	}
	j.hub.publish(ev)
	j.hub.close()
	close(j.done)
}

// snapshot renders the status payload.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Priority:   j.priority,
		Tenant:     j.tenant,
		CreatedAt:  j.created,
		CacheHit:   j.cacheHit,
		Deduped:    j.deduped,
		CellsDone:  j.cellsDone,
		CellsTotal: j.cellsTotal,
	}
	st.Preemptions = j.preemptions
	if j.req.Cell != nil {
		st.Cell = j.req.Cell
	} else {
		st.Figure = j.figure
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		st.DeadlineAt = &t
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	st.ResultBytes = len(j.body)
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for _, ce := range j.failures {
		st.Quarantined = append(st.Quarantined, cellFailure(ce))
	}
	return st
}

// result returns the terminal state and body (valid after done closes).
func (j *job) result() (JobState, []byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.body, j.err
}
