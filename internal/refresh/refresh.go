// Package refresh implements the DRAM refresh scheduling policies the
// paper evaluates:
//
//   - all-bank         — rank-level auto-refresh (DDR3 / DDR4 FGR 1x)
//   - PerBankRR        — LPDDR3 round-robin per-bank refresh
//   - PerBankSeq       — the paper's proposed schedule (Algorithm 1)
//   - OOOPerBank       — out-of-order per-bank refresh (Chang et al.)
//   - FGR 2x/4x        — DDR4 fine-granularity refresh modes
//   - Adaptive         — Adaptive Refresh (Mukundan et al.): dynamic
//     1x/4x switching on observed channel utilization
//
// and the related work the extensions compare against: Elastic
// Refresh, Refresh Pausing, RAIDR and per-bank subarray-level refresh.
// The refresh-free bound that normalizes Figures 3 and 4 is no policy
// at all: New returns a nil Scheduler for config.RefreshNone, and the
// memory controller then never ticks.
//
// A policy is configuration plus a decision function. Everything its
// decisions change lives in one State record, which New returns
// initialised and the memory controller owns: the controller calls Next
// with it once per refresh interval, executes the returned command on
// the DRAM channel, and checkpoints the record with its own state.
// Policies never mutate DRAM state themselves, which keeps them
// independently unit-testable.
package refresh

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/sim"
)

// Target is one refresh command decision.
type Target struct {
	// Skip indicates no refresh is issued this interval.
	Skip bool
	// AllBank selects rank-level refresh of Rank; otherwise GlobalBank
	// (rank*banksPerRank+bank) is refreshed.
	AllBank    bool
	Rank       int
	GlobalBank int
	// SubarrayLevel narrows the command to one subarray of GlobalBank.
	SubarrayLevel bool
	Subarray      int
	// Rows is the number of rows this command refreshes per bank.
	Rows uint64
	// Dur is the refresh cycle time in cycles (tRFCab, tRFCpb, or an
	// FGR-scaled value).
	Dur uint64
}

// QueueView gives policies read-only visibility into controller queue
// state (used by OOOPerBank, Elastic and Adaptive Refresh).
type QueueView interface {
	// OutstandingToBank returns queued demand requests headed to the
	// given global bank.
	OutstandingToBank(globalBank int) int
	// Utilization returns the recent read-queue utilization in [0,1],
	// reset after each call (epoch-based sampling).
	Utilization() float64
}

// Scheduler is a refresh policy for one channel. It holds only
// configuration; st is the channel's decision state.
type Scheduler interface {
	// Interval returns the time until the next refresh decision. It is
	// re-consulted after every tick, so Adaptive varies it with its
	// mode in st.
	Interval(st *State) uint64
	// Next returns the refresh command for the current interval and
	// advances st.
	Next(now sim.Time, q QueueView, st *State) Target
}

// SlotPlanner is implemented by schedules whose bank refresh slots are
// statically known ahead of time — the property the co-design exposes to
// the OS. BankAtTime returns the global bank whose refresh slot contains
// time t.
type SlotPlanner interface {
	BankAtTime(t sim.Time) int
	SlotCycles() uint64
}

// Geometry captures what a policy needs to know about its channel.
type Geometry struct {
	Ranks        int
	BanksPerRank int
	// Subarrays is the per-bank subarray count (1 = monolithic).
	Subarrays int
	Timing    *dram.Timing
}

// TotalBanks returns banks per channel.
func (g Geometry) TotalBanks() int { return g.Ranks * g.BanksPerRank }

// New constructs the configured policy for one channel and the decision
// state it starts from. config.RefreshNone yields a nil Scheduler.
func New(p config.RefreshPolicy, g Geometry) (Scheduler, State, error) {
	var s Scheduler
	var err error
	switch p {
	case config.RefreshNone:
		return nil, State{}, nil
	case config.RefreshAllBank:
		s, err = NewFGR(g, 1)
	case config.RefreshPerBankRR:
		s = NewPerBankRR(g)
	case config.RefreshPerBankSeq:
		s = NewPerBankSeq(g)
	case config.RefreshOOOPerBank:
		s = NewOOOPerBank(g)
	case config.RefreshFGR2x:
		s, err = NewFGR(g, 2)
	case config.RefreshFGR4x:
		s, err = NewFGR(g, 4)
	case config.RefreshAdaptive:
		s = NewAdaptive(g, 0, 0)
	case config.RefreshElastic:
		s = NewElastic(g)
	case config.RefreshPausing:
		s = NewPausing(g)
	case config.RefreshRAIDR:
		s, err = NewRAIDR(g, DefaultRetentionBins())
	case config.RefreshPerBankSA:
		if g.Subarrays <= 1 {
			return nil, State{}, fmt.Errorf("refresh: perbanksa requires SubarraysPerBank > 1")
		}
		s = NewPerBankSA(g, g.Subarrays)
	default:
		return nil, State{}, fmt.Errorf("refresh: unknown policy %q", p)
	}
	if err != nil {
		return nil, State{}, err
	}
	return s, initialState(s), nil
}
