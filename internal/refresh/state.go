package refresh

import (
	"slices"

	"refsched/internal/sim"
)

// State is everything a refresh policy's decisions change on one
// channel. New returns it initialised beside the policy; the memory
// controller owns it, passes it to Next and to the Pauser methods, and
// checkpoints it with Clone. Each policy reads and writes only its own
// fields, so one gob type covers the whole policy matrix.
type State struct {
	// NextRank is the rank cursor of all-bank refresh (FGR in every
	// mode, Adaptive's 1x mode) and of Pausing; NextRank4x is Adaptive's
	// 4x-mode cursor.
	NextRank   int
	NextRank4x int
	// NextBank is the global bank cursor of PerBankRR, RAIDR, PerBankSA
	// and OOOPerBank's forced rotation; NextSub is PerBankSA's subarray
	// cursor.
	NextBank int
	NextSub  int

	// Remaining is OOOPerBank's count of commands each bank still owes
	// in the retention window that ends at WindowEnd.
	Remaining []uint64
	WindowEnd sim.Time

	// Mode4x selects Adaptive's 4x mode (else 1x); NextEval is its next
	// epoch boundary.
	Mode4x   bool
	NextEval sim.Time

	// Debt is Elastic's count of owed commands per rank, and AccrueAt
	// each rank's next obligation.
	Debt     []int
	AccrueAt []sim.Time

	// Remainder is Pausing's paused refresh residue per rank, in cycles,
	// and PausesSpent the pauses each rank's current command has taken
	// of its budget.
	Remainder   []uint64
	PausesSpent []int

	// Acc is RAIDR's decimation accumulator.
	Acc float64

	// Counters of the decisions only one policy makes, beside the
	// controller's uniform Stats (see KeptCounters). ModeSwitches
	// counts Adaptive's 1x<->4x transitions, Resumes Pausing's reissued
	// remainders; ForcedIssues and IdleIssues split Elastic's commands
	// by cause.
	ModeSwitches uint64
	Resumes      uint64
	ForcedIssues uint64
	IdleIssues   uint64
}

// Counter is one counter a policy keeps in its State.
type Counter struct {
	Name string // metric name under mc[i].refresh
	P    *uint64
}

// KeptCounters returns the counters of st that policy s writes. The
// policies other than Adaptive, Pausing and Elastic keep none, so a
// metrics registry holds only counters that can move.
func KeptCounters(s Scheduler, st *State) []Counter {
	switch s.(type) {
	case *Adaptive:
		return []Counter{{"mode_switches", &st.ModeSwitches}}
	case *Pausing:
		return []Counter{{"resumes", &st.Resumes}}
	case *Elastic:
		return []Counter{{"forced_issues", &st.ForcedIssues}, {"idle_issues", &st.IdleIssues}}
	}
	return nil
}

// Clone returns a deep copy of s: a checkpoint shares no slice with the
// policy that keeps running.
func (s State) Clone() State {
	s.Remaining = slices.Clone(s.Remaining)
	s.Debt = slices.Clone(s.Debt)
	s.AccrueAt = slices.Clone(s.AccrueAt)
	s.Remainder = slices.Clone(s.Remainder)
	s.PausesSpent = slices.Clone(s.PausesSpent)
	return s
}

// initialState returns the state s starts from: the zero State, plus
// the per-rank or per-bank records of the policies that keep them.
func initialState(s Scheduler) State {
	var st State
	if i, ok := s.(interface{ init(*State) }); ok {
		i.init(&st)
	}
	return st
}
