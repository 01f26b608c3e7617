package mc

import (
	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
	"refsched/internal/timeline"
)

// promptWindowFactor bounds how far into the future the controller will
// pre-commit a command sequence: a pick is only committed if its data
// burst begins within this many cycles of the decision point. Larger
// values pipeline more aggressively but make FR-FCFS decisions stale.
const promptWindow = 600

// starvationAge is the queue age (cycles) past which FR-FCFS stops
// letting row hits bypass an older request.
const starvationAge = 4000

// maxBypasses bounds how many younger row-hit requests may overtake any
// single queued request before it gets absolute priority.
const maxBypasses = 8

// Controller is the per-channel memory controller.
type Controller struct {
	eng    *sim.Engine
	ch     *dram.Channel
	cfg    config.MemConfig
	policy refresh.Scheduler // nil: refresh disabled
	pauser refresh.Pauser    // non-nil when the policy supports pausing
	// refSt is the policy's decision state; the controller owns it and
	// checkpoints it.
	refSt refresh.State

	readQ  []*Request
	writeQ []*Request
	// perBankQueued counts queued demand reads per global bank
	// (refresh.QueueView for the OOO policy).
	perBankQueued []int

	draining bool

	// Issue-event bookkeeping: at most one pending try-issue event, at
	// issueAt.
	issuePending bool
	issueAt      sim.Time
	// minRejectedStart is the earliest command start among plans
	// rejected for promptness during the current evaluation; it tells
	// earliestRetry exactly when re-evaluating becomes useful (without
	// it, a saturated bus degenerates into per-cycle queue rescans).
	minRejectedStart sim.Time
	// cand is the plan promptPlan last computed and chosen the plan pick
	// accepted. Both are written and read within one tryIssue call, so
	// they are scratch, not checkpointed state; keeping them here rather
	// than returning them by value keeps the 48-byte plan copies off the
	// stack of the planning loop, whose speed otherwise depends on where
	// the run loop's frames happen to land.
	cand, chosen dram.AccessPlan
	// rejectedHit and rejectedMiss are the current pick's plan memo: bit
	// g is set once a plan for global bank g with that row-hit class was
	// rejected for promptness. A plan's start depends only on the bank,
	// the bus and whether the row hits, and within one pick only a
	// granted pause changes any of them, so a later request to the same
	// bank and class would be rejected with the same start. Scratch like
	// cand: pick clears it. config.Validate caps a channel at 64 banks.
	rejectedHit, rejectedMiss uint64

	// gen counts changes to what an evaluation reads: the queues, bank
	// and bus state, and the refresh policy. idle records the last
	// evaluation that issued nothing and paused nothing; a later
	// try-issue event at the same cycle and gen would rescan to the same
	// verdict, so it re-arms the recorded retry instead. Neither is
	// checkpointed: a restored controller starts with no record, and a
	// rescan reaches the state the record stands for.
	gen  uint64
	idle struct {
		at, retry sim.Time
		gen       uint64
	}

	// Read-queue back-pressure waiters, FIFO: rejected requests
	// resubmitted (in arrival order) as slots free. Holding the requests
	// themselves — not callbacks — keeps back-pressure state serializable.
	readWaiters  []*Request
	writeWaiters []*Request

	// free holds issued requests for NewRequest to reuse. It is not
	// checkpointed: NewRequest clears what it hands out, so which
	// request it reuses makes no difference.
	free []*Request

	// tracer, when set, observes every accepted demand request
	// (cycle, line address, write, task).
	tracer func(cycle, addr uint64, write bool, task int)

	// tl, when set, records refresh busy slots and refresh-stalled
	// reads onto this channel's bank tracks (pid tlPid, tid = global
	// bank index).
	tl    *timeline.Recorder
	tlPid int32

	// Utilization sampling for Adaptive Refresh.
	utilLastReset sim.Time
	utilIntegral  float64
	utilLastTime  sim.Time
	utilLastOcc   int

	Stats Stats
	// PolicyStats classifies the refresh policy's decisions (observed
	// centrally in refreshTick so every policy is covered uniformly).
	PolicyStats refresh.Stats
}

// New builds a controller for channel ch using the given refresh
// policy and its initial state (both as refresh.New returns them),
// scheduling its events on eng. A nil policy never refreshes.
func New(eng *sim.Engine, ch *dram.Channel, cfg config.MemConfig, policy refresh.Scheduler, st refresh.State) *Controller {
	c := &Controller{
		eng:           eng,
		ch:            ch,
		cfg:           cfg,
		policy:        policy,
		refSt:         st,
		perBankQueued: make([]int, ch.TotalBanks()),
		gen:           1, // so the zero idle record matches nothing
	}
	if p, ok := policy.(refresh.Pauser); ok {
		c.pauser = p
	}
	if policy != nil {
		c.eng.SchedulePAt(c.eng.Now()+policy.Interval(&c.refSt),
			sim.Payload{Kind: sim.KindMCRefreshTick, A: uint64(ch.ID)})
	}
	return c
}

// RefreshCounters returns the counters only the refresh policy keeps
// (metrics registration).
func (c *Controller) RefreshCounters() []refresh.Counter {
	return refresh.KeptCounters(c.policy, &c.refSt)
}

// SetTracer installs a request observer invoked for every accepted
// demand request (nil disables tracing).
func (c *Controller) SetTracer(fn func(cycle, addr uint64, write bool, task int)) {
	c.tracer = fn
}

// SetTimeline installs a timeline recorder for this channel's bank
// tracks under process id pid (nil disables recording).
func (c *Controller) SetTimeline(rec *timeline.Recorder, pid int32) {
	c.tl = rec
	c.tlPid = pid
}

// NewRequest returns a cleared request for the line at addr, which
// coord locates on this controller's channel. It reuses a request this
// controller has issued when there is one, so a steady stream of
// submissions allocates nothing.
func (c *Controller) NewRequest(addr uint64, coord dram.Coord) *Request {
	var r *Request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
		*r = Request{}
	} else {
		r = new(Request)
	}
	r.Addr, r.Coord = addr, coord
	return r
}

// CanAcceptRead reports whether the read queue has space.
func (c *Controller) CanAcceptRead() bool { return len(c.readQ) < c.cfg.ReadQueue }

// CanAcceptWrite reports whether the write queue has space.
func (c *Controller) CanAcceptWrite() bool { return len(c.writeQ) < c.cfg.WriteQueue }

// SubmitRead enqueues a demand read. It returns false (and counts a
// back-pressure stall) when the queue is full; the caller should register
// a waiter via WhenReadSpace and retry.
func (c *Controller) SubmitRead(r *Request) bool {
	if !c.CanAcceptRead() {
		c.Stats.QueueFullReadStalls++
		return false
	}
	r.Arrive = c.eng.Now()
	r.Write = false
	if c.tracer != nil {
		c.tracer(uint64(r.Arrive), r.Addr, false, r.TaskID)
	}
	c.trackOcc()
	c.readQ = append(c.readQ, r)
	c.perBankQueued[r.Coord.GlobalBank(c.ch.BanksPerRank)]++
	c.gen++
	c.kick()
	return true
}

// SubmitWrite enqueues a posted write (an LLC write-back). It returns
// false when the write queue is full.
func (c *Controller) SubmitWrite(r *Request) bool {
	if !c.CanAcceptWrite() {
		c.Stats.QueueFullWriteStalls++
		return false
	}
	r.Arrive = c.eng.Now()
	r.Write = true
	if c.tracer != nil {
		c.tracer(uint64(r.Arrive), r.Addr, true, r.TaskID)
	}
	c.writeQ = append(c.writeQ, r)
	if len(c.writeQ) >= c.cfg.WriteHighWater && !c.draining {
		c.draining = true
		c.Stats.WriteDrains++
	}
	c.gen++
	c.kick()
	return true
}

// WhenReadSpace registers r for resubmission once a read-queue slot
// frees (FIFO among waiters).
func (c *Controller) WhenReadSpace(r *Request) { c.readWaiters = append(c.readWaiters, r) }

// WhenWriteSpace registers r for resubmission once a write-queue slot
// frees.
func (c *Controller) WhenWriteSpace(r *Request) { c.writeWaiters = append(c.writeWaiters, r) }

// --- refresh.QueueView ---

// OutstandingToBank implements refresh.QueueView.
func (c *Controller) OutstandingToBank(g int) int { return c.perBankQueued[g] }

// ReadQueueLen returns the current read-queue occupancy (metrics
// gauge).
func (c *Controller) ReadQueueLen() int { return len(c.readQ) }

// WriteQueueLen returns the current write-queue occupancy (metrics
// gauge).
func (c *Controller) WriteQueueLen() int { return len(c.writeQ) }

// Utilization implements refresh.QueueView: mean read-queue occupancy
// fraction since the previous call.
func (c *Controller) Utilization() float64 {
	now := c.eng.Now()
	c.trackOcc()
	dt := float64(now - c.utilLastReset)
	u := 0.0
	if dt > 0 {
		u = c.utilIntegral / (dt * float64(c.cfg.ReadQueue))
	}
	c.utilLastReset = now
	c.utilIntegral = 0
	return u
}

// trackOcc integrates read-queue occupancy over time.
func (c *Controller) trackOcc() {
	now := c.eng.Now()
	c.utilIntegral += float64(now-c.utilLastTime) * float64(c.utilLastOcc)
	c.utilLastTime = now
	c.utilLastOcc = len(c.readQ)
}

// --- refresh execution ---

func (c *Controller) refreshTick() {
	now := c.eng.Now()
	c.gen++ // Next may change policy state even when it skips
	t := c.policy.Next(now, c, &c.refSt)
	c.PolicyStats.Observe(t)
	if t.Skip {
		c.Stats.RefreshSkipped++
	} else {
		c.Stats.RefreshCommands++
		var end sim.Time
		switch {
		case t.AllBank:
			end = c.ch.RefreshRank(now, t.Rank, t.Dur, t.Rows)
		case t.SubarrayLevel:
			end = c.ch.RefreshSubarray(now, t.GlobalBank, t.Subarray, t.Dur, t.Rows)
		default:
			end = c.ch.RefreshBank(now, t.GlobalBank, t.Dur, t.Rows)
		}
		// Blocked requests become issuable when the refresh window ends.
		c.scheduleIssue(end)
		if c.tl != nil {
			c.emitRefreshSpans(now, end, t)
		}
	}
	c.eng.SchedulePAt(now+c.policy.Interval(&c.refSt),
		sim.Payload{Kind: sim.KindMCRefreshTick, A: uint64(c.ch.ID)})
}

// emitRefreshSpans records the refresh command window [now, end) on
// the affected bank tracks. Rank-level commands paint every bank of
// the rank so sequential vs rotated per-bank schedules are visually
// distinct from all-bank lockstep in Perfetto.
func (c *Controller) emitRefreshSpans(now, end sim.Time, t refresh.Target) {
	ts, dur := uint64(now), uint64(end-now)
	switch {
	case t.AllBank:
		base := t.Rank * c.ch.BanksPerRank
		for b := 0; b < c.ch.BanksPerRank; b++ {
			c.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: ts, Dur: dur,
				Pid: c.tlPid, Tid: int32(base + b), Name: "refresh(all)",
				Arg1Name: "rows", Arg1: int64(t.Rows)})
		}
	case t.SubarrayLevel:
		c.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: ts, Dur: dur,
			Pid: c.tlPid, Tid: int32(t.GlobalBank), Name: "refresh(subarray)",
			Arg1Name: "rows", Arg1: int64(t.Rows),
			Arg2Name: "subarray", Arg2: int64(t.Subarray)})
	default:
		c.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan, Ts: ts, Dur: dur,
			Pid: c.tlPid, Tid: int32(t.GlobalBank), Name: "refresh",
			Arg1Name: "rows", Arg1: int64(t.Rows)})
	}
}

// --- FR-FCFS issue engine ---

// kick requests an immediate issue evaluation.
func (c *Controller) kick() { c.scheduleIssue(c.eng.Now()) }

// scheduleIssue ensures a try-issue event exists no later than t.
func (c *Controller) scheduleIssue(t sim.Time) {
	if t < c.eng.Now() {
		t = c.eng.Now()
	}
	if c.issuePending && c.issueAt <= t {
		return
	}
	c.issuePending = true
	c.issueAt = t
	c.eng.SchedulePAt(t, sim.Payload{Kind: sim.KindMCTryIssue, A: uint64(c.ch.ID)})
}

func (c *Controller) tryIssue() {
	// This event may be stale (a newer one was requested); only the
	// earliest matters, so clear the flag and re-evaluate. A repeat of
	// the recorded evaluation would reach its verdict again, so it only
	// re-arms the recorded retry.
	c.issuePending = false
	now := c.eng.Now()
	if c.idle.gen == c.gen && c.idle.at == now {
		c.scheduleIssue(c.idle.retry)
		return
	}
	c.minRejectedStart = 0
	gen := c.gen

	for {
		q := c.pickQueue()
		if q == nil {
			return
		}
		idx := c.pick(*q, now)
		if idx < 0 {
			// Nothing can start promptly; retry when resources free.
			retry := c.earliestRetry(now)
			// Record only an evaluation that issued nothing: after a
			// commit, minRejectedStart still holds rejections made
			// against the bank and bus state before it.
			if c.gen == gen {
				c.idle.at, c.idle.gen, c.idle.retry = now, gen, retry
			}
			c.scheduleIssue(retry)
			return
		}
		c.issue((*q)[idx], &c.chosen, q, idx, now)
	}
}

// pickQueue selects which queue FR-FCFS draws from: writes while
// draining (or when there is nothing else to do), reads otherwise.
func (c *Controller) pickQueue() *[]*Request {
	if c.draining && len(c.writeQ) <= c.cfg.WriteLowWater {
		c.draining = false
	}
	switch {
	case c.draining && len(c.writeQ) > 0:
		return &c.writeQ
	case len(c.readQ) > 0:
		return &c.readQ
	case len(c.writeQ) > 0:
		return &c.writeQ // opportunistic drain on an idle channel
	default:
		return nil
	}
}

// pick runs FR-FCFS over q at time now: prefer the oldest row-hit
// request, else the oldest request, subject to anti-starvation; a pick is
// accepted only if it can start promptly. Under the FCFS ablation only
// the oldest request is considered. It returns the picked index, with
// its plan in c.chosen, or -1.
func (c *Controller) pick(q []*Request, now sim.Time) int {
	c.rejectedHit, c.rejectedMiss = 0, 0
	if c.cfg.FCFS {
		if c.promptPlan(q[0], now) {
			c.chosen = c.cand
			return 0
		}
		return -1
	}
	best := -1
	bestHit := false
	// Anti-starvation: an over-bypassed or over-aged oldest request wins
	// outright.
	old := q[0]
	if old.Bypasses >= maxBypasses || uint64(now-old.Arrive) > starvationAge {
		if c.promptPlan(old, now) {
			c.chosen = c.cand
			return 0
		}
	}
	for i, r := range q {
		bank := c.ch.BankAt(r.Coord.Rank, r.Coord.Bank)
		hit := bank.OpenRow() == int64(r.Coord.Row) && !bank.RefreshingRow(r.Coord.Row, now)
		if best >= 0 && (!hit || bestHit) {
			continue // only a row hit can beat an older pick
		}
		if !c.promptPlan(r, now) {
			continue
		}
		best, bestHit = i, hit
		c.chosen = c.cand
		if bestHit && i == 0 {
			break
		}
	}
	if best > 0 {
		q[0].Bypasses++
	}
	return best
}

// promptPlan plans r into c.cand and accepts it only if the command
// sequence starts within the prompt window; it also accounts
// refresh-induced stalling.
func (c *Controller) promptPlan(r *Request, now sim.Time) bool {
	bank := c.ch.BankAt(r.Coord.Rank, r.Coord.Bank)
	if bank.RefreshingRow(r.Coord.Row, now) {
		// Refresh pausing: abort the in-progress refresh in favour of
		// this demand request when the policy allows it.
		if c.pauser != nil && c.pauser.RequestPause(&c.refSt, r.Coord.Rank) {
			remaining := c.ch.AbortRefresh(r.Coord.Rank, -1, now, c.pauser.PausePenalty())
			if remaining > 0 {
				c.pauser.Paused(&c.refSt, r.Coord.Rank, remaining)
				c.Stats.RefreshPauses++
			}
			// The pause changed bank state: forget this pick's
			// rejections, and keep the evaluation from being recorded
			// (a repeat would pause again).
			c.rejectedHit, c.rejectedMiss = 0, 0
			c.gen++
			// Fall through: the bank frees after the pause penalty.
		} else {
			if !r.Write && !r.RefreshStalled {
				r.RefreshStalled = true
				c.Stats.RefreshStalledReads++
				until := bank.RowRefreshUntil(r.Coord.Row)
				c.Stats.RefreshStallCycles += uint64(until - now)
				if c.tl != nil {
					c.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
						Ts: uint64(now), Dur: uint64(until - now),
						Pid:      c.tlPid,
						Tid:      int32(r.Coord.GlobalBank(c.ch.BanksPerRank)),
						Name:     "stalled-read",
						Arg1Name: "task", Arg1: int64(r.TaskID),
						Arg2Name: "row", Arg2: int64(r.Coord.Row)})
				}
			}
			return false
		}
	}
	// The refresh branch above runs for every visited request; only the
	// plan is skipped when this pick already rejected the bank and class.
	// On a bank with subarrays a miss's start also depends on the row's
	// subarray, so such misses are always planned (bit stays 0).
	hit := bank.OpenRow() == int64(r.Coord.Row)
	memo := &c.rejectedMiss
	if hit {
		memo = &c.rejectedHit
	}
	var bit uint64
	if hit || bank.Subarrays() == 1 {
		bit = 1 << uint(r.Coord.GlobalBank(c.ch.BanksPerRank))
	}
	if *memo&bit != 0 {
		return false
	}
	c.cand = c.ch.Plan(now, r.Coord, r.Write)
	if start := c.cand.Start; start > now+promptWindow {
		if c.minRejectedStart == 0 || start < c.minRejectedStart {
			c.minRejectedStart = start
		}
		*memo |= bit
		return false
	}
	return true
}

// earliestRetry computes when issuing could next succeed: the moment
// the best promptness-rejected plan becomes prompt, or the earliest
// future bank-ready / refresh-end among queued requests' banks.
// Requests whose banks are free *now* were already evaluated this pass
// (and are covered by the rejected-plan bound), so they impose no
// next-cycle retry.
func (c *Controller) earliestRetry(now sim.Time) sim.Time {
	earliest := now + promptWindow
	if c.minRejectedStart > 0 {
		t := c.minRejectedStart - promptWindow
		if t <= now {
			t = now + 1
		}
		if t < earliest {
			earliest = t
		}
	}
	consider := func(reqs []*Request) {
		for _, r := range reqs {
			b := c.ch.BankAt(r.Coord.Rank, r.Coord.Bank)
			t := b.ReadyAt()
			if s := b.RowRefreshUntil(r.Coord.Row); s > t {
				t = s
			}
			if t > now && t < earliest {
				earliest = t
			}
		}
	}
	consider(c.readQ)
	if c.draining || len(c.readQ) == 0 {
		consider(c.writeQ)
	}
	if earliest <= now {
		earliest = now + 1
	}
	return earliest
}

// issue commits the plan and schedules completion.
func (c *Controller) issue(r *Request, plan *dram.AccessPlan, q *[]*Request, idx int, now sim.Time) {
	c.ch.Commit(r.Coord, *plan)
	c.gen++
	if !r.Write {
		c.trackOcc()
		c.perBankQueued[r.Coord.GlobalBank(c.ch.BanksPerRank)]--
		c.Stats.Reads++
		c.Stats.ReadLatencySum += uint64(plan.DataEnd - r.Arrive)
		c.Stats.ReadQueueDelaySum += uint64(plan.Start - r.Arrive)
	} else {
		c.Stats.Writes++
	}
	*q = append((*q)[:idx], (*q)[idx+1:]...)

	// Completion re-enters the issuing core. Unowned completions
	// (posted writes) still execute, as no-ops: every event counts
	// toward Report.Events, which is part of every hashed report, so
	// dropping them would change every result.
	var owner uint64
	if r.Owner.Valid {
		owner = uint64(r.Owner.Core) + 1
	}
	c.eng.SchedulePAt(plan.DataEnd, sim.Payload{
		Kind: sim.KindMCComplete, A: uint64(c.ch.ID),
		B: owner, C: r.Owner.Miss, D: r.Owner.Epoch,
	})
	c.free = append(c.free, r)
	c.notifyWaiters()
}

// notifyWaiters resubmits queued waiters now that a slot freed. The
// submission cannot fail: waiters are only popped while the queue has
// space (exactly the retry the old callback-based waiters performed).
func (c *Controller) notifyWaiters() {
	for len(c.readWaiters) > 0 && c.CanAcceptRead() {
		r := c.readWaiters[0]
		c.readWaiters = c.readWaiters[1:]
		c.SubmitRead(r)
	}
	for len(c.writeWaiters) > 0 && c.CanAcceptWrite() {
		r := c.writeWaiters[0]
		c.writeWaiters = c.writeWaiters[1:]
		c.SubmitWrite(r)
	}
}

// Exec dispatches this controller's own payload events. Completion
// events (KindMCComplete) re-enter the issuing core and are routed by
// the system-level dispatcher instead.
func (c *Controller) Exec(p sim.Payload) {
	switch p.Kind {
	case sim.KindMCRefreshTick:
		c.refreshTick()
	case sim.KindMCTryIssue:
		c.tryIssue()
	default:
		panic("mc: unexpected payload kind")
	}
}
