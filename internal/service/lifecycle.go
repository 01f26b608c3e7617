package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/runner"
	"refsched/internal/timeline"
)

// cellRunner is the harness hook that ties a figure sweep to this
// daemon: it counts executions, publishes per-cell progress through
// the job's event hub (reusing the runner's OnDone collector), and
// wraps every cell that runs here in the global priority gate and a
// timeline lane.
func (s *Server) cellRunner(j *job) harness.CellRunner {
	return func(ctx context.Context, figID string, rjobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		s.simulations.Add(1)
		j.setCells(len(rjobs))
		fm := s.figMetrics(j.figure)
		orig := opts.OnDone
		opts.OnDone = func(i int, c runner.Cell, rep *core.Report) {
			if orig != nil {
				orig(i, c, rep)
			}
			if rep != nil {
				fm.cells.Add(1)
				fm.simEvents.Add(rep.Events)
				j.engineEvents.Add(rep.Events)
				fm.reads.Add(rep.Reads)
				fm.writes.Add(rep.Writes)
				fm.refreshCommands.Add(rep.RefreshCommands)
				fm.refreshStalledReads.Add(rep.RefreshStalledReads)
				s.figMu.Lock()
				fm.skips.Merge(rep.SchedSkips)
				s.figMu.Unlock()
			}
			j.cellDone(c)
		}
		// Each cell first waits for a gate slot at the job's priority
		// (a cancelled wait fails the cell with the context error) and
		// marks its admission on the timeline. It then runs on an
		// exclusive timeline lane for its whole execution, so lane
		// timestamps are monotone by construction; the span carries the
		// creating request's id for correlation with the HTTP request
		// span.
		for i := range rjobs {
			cell := rjobs[i].Cell
			run := rjobs[i].Run
			rjobs[i].Run = func() (*core.Report, error) {
				if s.gate != nil {
					t0 := j.sinceUS()
					release, err := s.gate.acquire(ctx, j.priority)
					if err != nil {
						return nil, err
					}
					defer release()
					j.tl.Emit(timeline.Event{Ph: timeline.PhaseInstant,
						Ts: j.sinceUS(), Pid: tlPidService, Tid: tlTidGate,
						Name: "admitted", Arg1Name: "wait_us", Arg1: int64(j.sinceUS() - t0)})
				}
				lane := j.acquireLane()
				t0 := j.sinceUS()
				rep, err := run()
				j.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
					Ts: t0, Dur: j.sinceUS() - t0,
					Pid: tlPidCells, Tid: lane, Name: cell.String(),
					Arg1Name: "seed", Arg1: int64(cell.Seed),
					StrName: "req", Str: j.reqID})
				j.releaseLane(lane)
				return rep, err
			}
		}
		if s.cluster.FanoutEnabled() {
			// Cells fan out to peers with spare capacity; the rest (and
			// every failed dispatch) run here through the gated wrapper
			// installed above. Results merge at their submission index,
			// so the rendered figure is byte-identical to a single-node
			// run.
			j.tl.SetProcessName(tlPidRemote, "remote cells")
			return s.cluster.RunCells(ctx, figID, j.params, j.reqID, j.priority,
				rjobs, opts, s.remoteCellObserver(j))
		}
		return runner.RunBatch(ctx, rjobs, opts)
	}
}

// execute runs one job to a terminal state.
func (s *Server) execute(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	// A job whose deadline lapsed while it sat queued is shed before it
	// burns a worker: the typed expiry is its terminal answer.
	if j.pastDeadline() {
		j.tl.Instant(tlPidService, tlTidJob, "deadline-expired", j.sinceUS())
		s.finishJob(j, JobExpired, nil, nil,
			fmt.Errorf("service: deadline expired after %s in queue: %w",
				time.Since(j.created).Round(time.Millisecond), context.DeadlineExceeded), false)
		return
	}
	j.setRunning()
	t0 := time.Now()

	// A completed identical job may have filled the cache while this
	// one sat queued. (Contains first so the common just-enqueued miss
	// does not double-count in the cache stats.)
	if s.cache.Contains(j.key) {
		if body, ok := s.cache.Get(j.key); ok {
			s.cacheHits.Add(1)
			j.tl.Instant(tlPidService, tlTidJob, "cache-hit", j.sinceUS())
			s.observeLatency(j.figure, time.Since(t0))
			s.finishJob(j, JobDone, body, nil, nil, true)
			return
		}
	}
	// Cross-shard fallback: before paying for a simulation, ask the
	// key's ring owner (one GET, never a broadcast) whether a peer
	// already computed this result — and keep a local copy so the next
	// miss here is a plain hit.
	if s.cluster.Enabled() {
		if body, peer, ok := s.remoteCacheLookup(j.key); ok {
			s.cachePut(j.key, body)
			j.tl.Emit(timeline.Event{Ph: timeline.PhaseInstant,
				Ts: j.sinceUS(), Pid: tlPidService, Tid: tlTidJob,
				Name: "remote-cache-hit", StrName: "peer", Str: peer})
			s.observeLatency(j.figure, time.Since(t0))
			s.finishJob(j, JobDone, body, nil, nil, true)
			return
		}
	}
	runStart := j.sinceUS()

	// Per-job cancellation: the soft context lets in-flight cells
	// finish; the hard context aborts them at the next run-leg boundary
	// and interrupts chaos stalls. The job's deadline bounds both; the
	// watchdog fires both through j.kill; the drain deadline fires both
	// through their common parent, s.runCtx.
	var softCtx, hardCtx context.Context
	var softCancel, hardCancel context.CancelFunc
	if j.deadline.IsZero() {
		softCtx, softCancel = context.WithCancel(s.runCtx)
		hardCtx, hardCancel = context.WithCancel(s.runCtx)
	} else {
		softCtx, softCancel = context.WithDeadline(s.runCtx, j.deadline)
		hardCtx, hardCancel = context.WithDeadline(s.runCtx, j.deadline)
	}
	gen := j.arm(softCancel, hardCancel)
	defer func() {
		j.disarm(gen)
		softCancel()
		hardCancel()
	}()

	p := j.params
	p.Ctx = softCtx
	p.HardCtx = hardCtx
	p.CellRunner = s.cellRunner(j)

	var body []byte
	var failures []*runner.CellError
	var err error
	if j.req.Cell != nil {
		c := j.req.Cell
		var rep *core.Report
		rep, err = harness.RunCell(p, c.Mix, c.Density, c.Bundle, c.Hot)
		if err == nil {
			var raw []byte
			raw, err = json.MarshalIndent(rep, "", " ")
			body = append(raw, '\n')
		}
		var ce *runner.CellError
		if errors.As(err, &ce) {
			failures = append(failures, ce)
			err = nil
		}
	} else {
		var rs []*harness.Result
		rs, err = harness.RunFigure(j.figure, p)
		if err == nil {
			for _, r := range rs {
				failures = append(failures, r.Failed...)
			}
			body = renderResults(rs)
		}
	}

	j.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
		Ts: runStart, Dur: j.sinceUS() - runStart,
		Pid: tlPidService, Tid: tlTidJob, Name: "run " + j.figure,
		Arg1Name: "quarantined", Arg1: int64(len(failures)),
		StrName: "req", Str: j.reqID})
	killed := j.killed()
	if killed == nil && (err != nil || len(failures) > 0) && j.preemptRequested() && !j.pastDeadline() {
		// A preemption request landed and the run unwound (cells abort
		// with errPreempted at their next boundary; the soft cancel skips
		// the rest). The job is not finished — its snapshots are in the
		// store, so it goes back on the queue and resumes from them. If
		// the run beat the request to completion (err and failures both
		// clean), the preemption was a no-op and the cases below classify
		// the finished result as usual.
		s.preemptions.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "preempted", j.sinceUS())
		s.requeuePreempted(j)
		s.log.Info("job preempted",
			"job", j.id, "figure", j.figure,
			"duration_ms", float64(time.Since(t0).Microseconds())/1000)
		return
	}
	// The latency sample lands before finishJob wakes the job's
	// waiters, so a /statsz read right after the response counts it.
	s.observeLatency(j.figure, time.Since(t0))
	switch {
	case killed != nil:
		// The watchdog's verdict wins the classification: whatever error
		// the cancellation produced downstream, the story is the kill.
		s.finishJob(j, JobFailed, nil, failures, killed, false)
	case (err != nil || len(failures) > 0) && j.pastDeadline():
		// The deadline elapsed mid-run and the cancellation unwound the
		// sweep — either as a batch-level error or as per-cell failures
		// (a single-cell job surfaces its interrupted cell that way);
		// classify as expired, not failed.
		j.tl.Instant(tlPidService, tlTidJob, "deadline-expired", j.sinceUS())
		if err == nil {
			err = context.DeadlineExceeded
		}
		s.finishJob(j, JobExpired, nil, failures,
			fmt.Errorf("service: deadline expired mid-run: %w", err), false)
	case err != nil:
		s.finishJob(j, JobFailed, nil, nil, err, false)
	case len(failures) > 0:
		// Partial results are served but never cached: the failed
		// cells should be re-attempted by the next request.
		s.finishJob(j, JobQuarantined, body, failures, nil, false)
	default:
		s.cachePut(j.key, body)
		s.finishJob(j, JobDone, body, nil, nil, false)
	}
	st := j.snapshot()
	s.log.Info("job finished",
		"job", j.id, "figure", j.figure, "state", st.State,
		"cells", st.CellsDone, "duration_ms", float64(time.Since(t0).Microseconds())/1000)
}

// cachePut caches a computed result. A failed journal append costs
// durability, not service: it is logged and the result is served.
func (s *Server) cachePut(key string, body []byte) {
	if err := s.cache.Put(key, body); err != nil {
		s.log.Error("cache journal append failed", "key", key, "err", err.Error())
	}
}

// requeuePreempted returns a displaced job to the queue. The job stays
// in the active map (coalescing requests keep landing on it, its id
// keeps answering status polls) and keeps its tenant hold and WAL
// record — it was admitted once and is still in flight, just not on a
// worker. Cell progress resets because the next run re-enumerates the
// sweep; completed cells answer instantly from the store's reports and
// the mid-cell snapshots resume the interrupted ones. Only a queue
// that closed for draining can refuse, turning the preemption into a
// terminal failure.
func (s *Server) requeuePreempted(j *job) {
	j.mu.Lock()
	j.preempt = false
	j.state = JobPreempted
	j.started = time.Time{}
	j.cellsDone, j.cellsTotal = 0, 0
	j.mu.Unlock()
	j.hub.publish(map[string]any{"event": "state", "job": j.id, "state": JobPreempted})
	if err := s.queue.push(j, false); err != nil {
		s.finishJob(j, JobFailed, nil, nil,
			fmt.Errorf("service: preempted job could not requeue: %w", err), false)
	}
}

// finishJob is every job's one terminal transition: it counts the
// outcome, clears the job's single-flight registration (enforcing the
// finished-job retention bound), moves it to its terminal state, returns
// its tenant's in-flight slot, and retires its WAL record. The count
// lands before the job's waiters wake, so a response never outruns it.
func (s *Server) finishJob(j *job, state JobState, body []byte, failures []*runner.CellError, err error, cacheHit bool) {
	switch state {
	case JobDone:
		s.completed.Add(1)
	case JobFailed:
		s.failed.Add(1)
	case JobQuarantined:
		s.quarantined.Add(1)
	case JobExpired:
		s.expired.Add(1)
	}
	s.jobsMu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > finishedRetain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.jobsMu.Unlock()
	j.finish(state, body, failures, err, cacheHit)
	s.releaseTenantHold(j)
	j.mu.Lock()
	walAccepted := j.walAccepted
	j.mu.Unlock()
	if walAccepted && s.wal != nil {
		s.wal.appendDone(j.id)
	}
}

// renderResults renders figure results exactly as cmd/experiments
// prints them (fmt.Println per result), which is what makes a served
// figure byte-identical to the batch CLI's output.
func renderResults(rs []*harness.Result) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// canonicalFigure normalizes the CLI target aliases so every alias of
// one computation shares a cache entry.
func canonicalFigure(name string) string {
	switch name {
	case "fig11":
		return "fig10"
	case "extensions":
		return "ext1"
	}
	return name
}

// validFigure reports whether name is a servable target (aliases
// included).
func validFigure(name string) bool {
	name = canonicalFigure(name)
	if name == "all" {
		return true
	}
	for _, n := range harness.FigureNames() {
		if n == name {
			return true
		}
	}
	return false
}

// admitContext carries enqueue's admission inputs: who is asking
// (tenant), any absolute deadline already computed, and — for WAL
// replay only — the original job id to preserve (which also bypasses
// admission limits and queue depth; see replayWAL).
type admitContext struct {
	tenant      string
	deadline    time.Time
	recoveredID string
}

// resolve validates a request and canonicalizes it into what its job is
// built from: the figure name ("cell" for a cell job), the effective
// parameters, and the key the job is cached, deduplicated and placed
// under. enqueue and the cluster router both use it, so a request is
// routed under the key it is cached under.
func (s *Server) resolve(req Request) (figure string, p harness.Params, key string, err error) {
	switch {
	case (req.Figure == "") == (req.Cell == nil):
		return "", p, "", errors.New("request needs exactly one of figure or cell")
	case req.DeadlineMS < 0:
		return "", p, "", errors.New("deadline_ms must be positive")
	case req.Cell == nil && !validFigure(req.Figure):
		return "", p, "", fmt.Errorf("unknown figure %q (want one of %v or all)", req.Figure, harness.FigureNames())
	}
	p = req.Params.apply(s.cfg.Params)
	switch p.Mode {
	case "", harness.ModeExact, harness.ModeApprox:
	default:
		return "", p, "", fmt.Errorf("unknown mode %q (want %q or %q)",
			p.Mode, harness.ModeExact, harness.ModeApprox)
	}
	if req.Cell == nil {
		figure = canonicalFigure(req.Figure)
		return figure, p, figureKey(figure, p), nil
	}
	spec, err := p.Cell(req.Cell.Mix, req.Cell.Density, req.Cell.Bundle, req.Cell.Hot)
	if err != nil {
		return "", p, "", err
	}
	return "cell", p, spec.Key(), nil
}

// enqueue resolves a request to a job: a coalesced in-flight job
// (single-flight), an instantly-done job on cache hit, or a freshly
// queued one. deduped reports coalescing. rid is the id of the HTTP
// request asking, recorded on a fresh job for timeline correlation.
func (s *Server) enqueue(req Request, rid string, adm admitContext) (j *job, deduped bool, err error) {
	recovered := adm.recoveredID != ""
	if s.draining.Load() && !recovered {
		return nil, false, errDraining
	}
	figure, params, key, err := s.resolve(req)
	if err != nil {
		return nil, false, err
	}

	// Every enqueue feeds the brownout controller, so the mode engages
	// the moment pressure crosses the threshold, not a tick later.
	s.brown.evaluate(s.queue.len(), s.cfg.QueueDepth)

	// A cache hit finishes the new job before its id is returned. This
	// deferred call runs after the deferred unlock below, because
	// finishJob takes jobsMu itself.
	var cached []byte
	var hit bool
	defer func() {
		if hit {
			s.finishJob(j, JobDone, cached, nil, nil, true)
		}
	}()
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if existing := s.active[key]; existing != nil {
		existing.addDeduped()
		s.dedupHits.Add(1)
		if recovered {
			// The replayed job's twin is already in flight; alias the
			// recovered id to it and retire the ledger record.
			s.jobs[adm.recoveredID] = existing
			s.wal.appendDone(adm.recoveredID)
		}
		return existing, true, nil
	}

	deadline := adm.deadline
	if deadline.IsZero() && req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	id := adm.recoveredID
	if id == "" {
		id = fmt.Sprintf("%s%06d", s.idPrefix, s.jobSeq.Add(1))
	}
	j = &job{
		id:       id,
		key:      key,
		figure:   figure,
		req:      req,
		params:   params,
		priority: req.Priority,
		created:  time.Now(),
		tenant:   adm.tenant,
		deadline: deadline,
		hub:      newEventHub(),
		done:     make(chan struct{}),
		state:    JobQueued,
		tl:       newJobTimeline(id),
		reqID:    rid,
		// A recovered job's accept record is already in the ledger.
		walAccepted: recovered,
	}
	j.hub.drops = &s.eventDrops
	// Every job's exact cells run under the checkpoint driver and a
	// store of the job's own, never the process-wide one; an approx job
	// has exact cells too (fig4's bank-confined ones). The store's poll
	// is where a preemption request takes effect. The leg structure is
	// invisible — a checkpointed cell's report is byte-identical to a
	// plain run's.
	j.params.Store = &harness.CellStore{Preempt: j.pollPreempt, Resumes: &s.preemptResumes}
	s.enqueued.Add(1)

	// Already computed: answer without a queue trip. No WAL record is
	// needed — the result is handed back synchronously in the same
	// exchange that acknowledges the job.
	if cached, hit = s.cache.Get(key); hit {
		s.cacheHits.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "cache-hit", j.sinceUS())
		s.jobs[j.id] = j
		return j, false, nil
	}

	// Fresh simulation work from here on: brownout shedding, the
	// per-tenant in-flight budget and the queue depth apply (coalescing
	// and cache hits above cost nothing and always pass). Replay bypasses
	// all three: its jobs were admitted once already.
	if recovered {
		s.tenants.hold(adm.tenant)
	} else {
		if s.brown.shouldShed(req.Priority) {
			s.brown.shed.Add(1)
			return nil, false, &admissionError{
				tenant: adm.tenant, reason: "brownout", retryAfter: s.retryAfterSeconds(),
			}
		}
		if err := s.tenants.admitInFlight(adm.tenant); err != nil {
			return nil, false, err
		}
	}
	j.tenantHeld = true
	// walAccepted is set before the push makes j visible to workers, so
	// a fast finish cannot race past the done-record bookkeeping.
	j.walAccepted = s.wal != nil
	if s.wal != nil && !recovered {
		// Acknowledgement barrier: the accept record is fsynced before
		// this job's id escapes to the client (enqueue returns only
		// after appendAccept). A WAL write failure degrades durability,
		// not service — it is logged and counted (wal.errors), and the
		// job still runs.
		rec := walRecord{ID: j.id, Tenant: j.tenant, Req: &j.req}
		if !deadline.IsZero() {
			rec.DeadlineAt = &deadline
		}
		if err := s.wal.appendAccept(rec); err != nil {
			s.log.Error("wal append failed", "job", j.id, "err", err.Error())
		}
	}
	if err := s.queue.push(j, !recovered); err != nil {
		s.releaseTenantHold(j)
		if s.wal != nil && !recovered {
			// Never acknowledged (the caller gets the push error), so
			// retire the accept record rather than replaying a ghost.
			s.wal.appendDone(j.id)
		}
		return nil, false, err
	}
	s.maybePreempt(j)

	j.tl.Instant(tlPidService, tlTidJob, "cache-miss", j.sinceUS())
	s.jobs[j.id] = j
	s.active[key] = j
	j.hub.publish(map[string]any{"event": "state", "job": j.id, "state": JobQueued})
	return j, false, nil
}

// maybePreempt runs under jobsMu after a fresh job joins the queue:
// when every worker is busy and some running job is strictly
// lower-priority than the arrival, the lowest-priority such job is
// asked to yield at its next checkpoint boundary. Only the request is
// posted here — the displaced job snapshots, unwinds, and requeues on
// its own worker (see execute's preempted case), and the freed worker
// then pops the highest-priority job, which is the arrival.
func (s *Server) maybePreempt(incoming *job) {
	if s.running.Load() < int64(s.cfg.Workers) {
		return
	}
	var victim *job
	for _, j := range s.active {
		if j == incoming || j.priority >= incoming.priority {
			continue
		}
		j.mu.Lock()
		eligible := j.state == JobRunning && j.killErr == nil && !j.preempt
		j.mu.Unlock()
		if !eligible {
			continue
		}
		if victim == nil || j.priority < victim.priority {
			victim = j
		}
	}
	if victim != nil && victim.requestPreempt() {
		s.log.Info("preempting job",
			"job", victim.id, "priority", victim.priority,
			"for", incoming.id, "incoming_priority", incoming.priority)
	}
}

// releaseTenantHold returns j's in-flight slot to its tenant, exactly
// once no matter how many paths observe the job finishing.
func (s *Server) releaseTenantHold(j *job) {
	j.mu.Lock()
	held := j.tenantHeld
	j.tenantHeld = false
	tenant := j.tenant
	j.mu.Unlock()
	if held {
		s.tenants.release(tenant)
	}
}

func (s *Server) getJob(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}
