package mc

import (
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

// RequestState is the serializable form of one queued or waiting
// Request. Completion routing lives in Owner (plain words), so a
// restored request is indistinguishable from the original.
type RequestState struct {
	Addr           uint64
	Coord          dram.Coord
	Write          bool
	TaskID         int
	Arrive         sim.Time
	RefreshStalled bool
	Owner          Owner
	Bypasses       int
}

// ControllerState is one controller's full mutable state at an
// event-quiescent point (no event mid-flight; pending events are
// captured separately by the engine snapshot).
type ControllerState struct {
	ReadQ   []RequestState
	WriteQ  []RequestState
	Waiters struct {
		Read  []RequestState
		Write []RequestState
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
	// Policy carries the refresh policy's decision state when the policy
	// is stateful (every policy except "none").
	Policy    refresh.State
	HasPolicy bool
}

func packRequests(reqs []*Request) []RequestState {
	out := make([]RequestState, len(reqs))
	for i, r := range reqs {
		out[i] = RequestState{
			Addr: r.Addr, Coord: r.Coord, Write: r.Write, TaskID: r.TaskID,
			Arrive: r.Arrive, RefreshStalled: r.RefreshStalled, Owner: r.Owner,
			Bypasses: r.bypasses,
		}
	}
	return out
}

func unpackRequests(sts []RequestState) []*Request {
	out := make([]*Request, len(sts))
	for i, st := range sts {
		out[i] = &Request{
			Addr: st.Addr, Coord: st.Coord, Write: st.Write, TaskID: st.TaskID,
			Arrive: st.Arrive, RefreshStalled: st.RefreshStalled, Owner: st.Owner,
			bypasses: st.Bypasses,
		}
	}
	return out
}

// State captures the controller for a checkpoint.
func (c *Controller) State() ControllerState {
	st := ControllerState{
		ReadQ:            packRequests(c.readQ),
		WriteQ:           packRequests(c.writeQ),
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
	}
	st.Waiters.Read = packRequests(c.readWaiters)
	st.Waiters.Write = packRequests(c.writeWaiters)
	if s, ok := c.policy.(refresh.Stateful); ok {
		st.Policy = s.State()
		st.HasPolicy = true
	}
	return st
}

// SetState restores the controller from a checkpoint taken on an
// identically configured controller. perBankQueued is derived state and
// is recomputed from the restored read queue.
func (c *Controller) SetState(st ControllerState) {
	c.readQ = unpackRequests(st.ReadQ)
	c.writeQ = unpackRequests(st.WriteQ)
	c.readWaiters = unpackRequests(st.Waiters.Read)
	c.writeWaiters = unpackRequests(st.Waiters.Write)
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
	c.gen++ // the idle record describes the state being replaced
	if s, ok := c.policy.(refresh.Stateful); ok && st.HasPolicy {
		s.SetState(st.Policy)
	}
}
