package mc

import (
	"refsched/internal/sim"
	"refsched/internal/timeline"
)

// This file keeps the issue engine the plan memo and the idle record
// replaced: every try-issue event rescans the queue and plans every
// visited request. It is the reference TestIssueEngineMatchesRescan
// holds the controller to, request for request. Only identifiers are
// renamed.

func (c *Controller) rescanTryIssue() {
	// This event may be stale (a newer one was requested); only the
	// earliest matters, so clear the flag and re-evaluate from scratch.
	c.issuePending = false
	c.minRejectedStart = 0
	now := c.eng.Now()

	for {
		q := c.pickQueue()
		if q == nil {
			return
		}
		idx := c.rescanPick(*q, now)
		if idx < 0 {
			// Nothing can start promptly; retry when resources free.
			c.scheduleIssue(c.rescanEarliestRetry(now))
			return
		}
		c.issue((*q)[idx], &c.chosen, q, idx, now)
	}
}

// rescanPick runs FR-FCFS over q at time now: prefer the oldest row-hit
// request, else the oldest request, subject to anti-starvation; a pick is
// accepted only if it can start promptly. Under the FCFS ablation only
// the oldest request is considered. It returns the picked index, with
// its plan in c.chosen, or -1.
func (c *Controller) rescanPick(q []*Request, now sim.Time) int {
	if c.cfg.FCFS {
		if c.rescanPromptPlan(q[0], now) {
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
		if c.rescanPromptPlan(old, now) {
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
		if !c.rescanPromptPlan(r, now) {
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

// rescanPromptPlan plans r into c.cand and accepts it only if the command
// sequence starts within the prompt window; it also accounts
// refresh-induced stalling.
func (c *Controller) rescanPromptPlan(r *Request, now sim.Time) bool {
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
	c.cand = c.ch.Plan(now, r.Coord, r.Write)
	if start := c.cand.Start; start > now+promptWindow {
		if c.minRejectedStart == 0 || start < c.minRejectedStart {
			c.minRejectedStart = start
		}
		return false
	}
	return true
}

// rescanEarliestRetry computes when issuing could next succeed: the moment
// the best promptness-rejected plan becomes prompt, or the earliest
// future bank-ready / refresh-end among queued requests' banks.
// Requests whose banks are free *now* were already evaluated this pass
// (and are covered by the rejected-plan bound), so they impose no
// next-cycle retry.
func (c *Controller) rescanEarliestRetry(now sim.Time) sim.Time {
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
