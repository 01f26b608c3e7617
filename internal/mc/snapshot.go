package mc

import (
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

// ControllerState is one controller's full mutable state at an
// event-quiescent point (no event mid-flight; pending events are
// captured separately by the engine snapshot). Queued and waiting
// requests are held by value: completion routing lives in their Owner
// words, so a restored request is indistinguishable from the original.
type ControllerState struct {
	ReadQ   []Request
	WriteQ  []Request
	Waiters struct {
		Read  []Request
		Write []Request
	}

	Draining         bool
	IssuePending     bool
	IssueAt          sim.Time
	MinRejectedStart sim.Time

	UtilLastReset sim.Time
	UtilIntegral  float64
	UtilLastTime  sim.Time
	UtilLastOcc   int

	Stats       Stats
	PolicyStats refresh.Stats
	// Refresh is the refresh policy's decision state (the zero State
	// when refresh is disabled).
	Refresh refresh.State
}

func values(reqs []*Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = *r
	}
	return out
}

// pointers copies reqs, so one state can be restored more than once.
func pointers(reqs []Request) []*Request {
	out := make([]*Request, len(reqs))
	for i := range reqs {
		r := reqs[i]
		out[i] = &r
	}
	return out
}

// State captures the controller for a checkpoint.
func (c *Controller) State() ControllerState {
	st := ControllerState{
		ReadQ:            values(c.readQ),
		WriteQ:           values(c.writeQ),
		Draining:         c.draining,
		IssuePending:     c.issuePending,
		IssueAt:          c.issueAt,
		MinRejectedStart: c.minRejectedStart,
		UtilLastReset:    c.utilLastReset,
		UtilIntegral:     c.utilIntegral,
		UtilLastTime:     c.utilLastTime,
		UtilLastOcc:      c.utilLastOcc,
		Stats:            c.Stats,
		PolicyStats:      c.PolicyStats,
		Refresh:          c.refSt.Clone(),
	}
	st.Waiters.Read = values(c.readWaiters)
	st.Waiters.Write = values(c.writeWaiters)
	return st
}

// SetState restores the controller from a checkpoint taken on an
// identically configured controller. perBankQueued is derived state and
// is recomputed from the restored read queue.
func (c *Controller) SetState(st ControllerState) {
	c.readQ = pointers(st.ReadQ)
	c.writeQ = pointers(st.WriteQ)
	c.readWaiters = pointers(st.Waiters.Read)
	c.writeWaiters = pointers(st.Waiters.Write)
	for i := range c.perBankQueued {
		c.perBankQueued[i] = 0
	}
	for _, r := range c.readQ {
		c.perBankQueued[r.Coord.GlobalBank(c.ch.BanksPerRank)]++
	}
	c.draining = st.Draining
	c.issuePending = st.IssuePending
	c.issueAt = st.IssueAt
	c.minRejectedStart = st.MinRejectedStart
	c.utilLastReset = st.UtilLastReset
	c.utilIntegral = st.UtilIntegral
	c.utilLastTime = st.UtilLastTime
	c.utilLastOcc = st.UtilLastOcc
	c.Stats = st.Stats
	c.PolicyStats = st.PolicyStats
	c.refSt = st.Refresh.Clone()
	c.gen++ // the idle record describes the state being replaced
}
