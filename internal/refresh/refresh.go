// Package refresh implements the DRAM refresh scheduling policies the
// paper evaluates:
//
//   - NoRefresh        — ideal upper bound, refresh disabled
//   - all-bank         — rank-level auto-refresh (DDR3 / DDR4 FGR 1x)
//   - PerBankRR        — LPDDR3 round-robin per-bank refresh
//   - PerBankSeq       — the paper's proposed schedule (Algorithm 1)
//   - OOOPerBank       — out-of-order per-bank refresh (Chang et al.)
//   - FGR 2x/4x        — DDR4 fine-granularity refresh modes
//   - Adaptive         — Adaptive Refresh (Mukundan et al.): dynamic
//     1x/4x switching on observed channel utilization
//
// A policy is a decision engine: the memory controller calls Next once
// per refresh interval and executes the returned command on the DRAM
// channel. Policies never mutate DRAM state themselves, which keeps them
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
// state (used by OOOPerBank and Adaptive Refresh).
type QueueView interface {
	// OutstandingToBank returns queued demand requests headed to the
	// given global bank.
	OutstandingToBank(globalBank int) int
	// Utilization returns the recent read-queue utilization in [0,1],
	// reset after each call (epoch-based sampling).
	Utilization() float64
}

// Scheduler is a refresh policy for one channel.
type Scheduler interface {
	// Name returns the policy's short identifier.
	Name() string
	// Interval returns the time until the next refresh decision. It is
	// re-consulted after every tick, so adaptive policies may vary it.
	Interval() uint64
	// Next returns the refresh command for the current interval.
	Next(now sim.Time, q QueueView) Target
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

// New constructs the configured policy for one channel.
func New(p config.RefreshPolicy, g Geometry) (Scheduler, error) {
	switch p {
	case config.RefreshNone:
		return &NoRefresh{}, nil
	case config.RefreshAllBank:
		return NewFGR(g, 1)
	case config.RefreshPerBankRR:
		return NewPerBankRR(g), nil
	case config.RefreshPerBankSeq:
		return NewPerBankSeq(g), nil
	case config.RefreshOOOPerBank:
		return NewOOOPerBank(g), nil
	case config.RefreshFGR2x:
		return NewFGR(g, 2)
	case config.RefreshFGR4x:
		return NewFGR(g, 4)
	case config.RefreshAdaptive:
		return NewAdaptive(g, 0, 0), nil
	case config.RefreshElastic:
		return NewElastic(g), nil
	case config.RefreshPausing:
		return NewPausing(g), nil
	case config.RefreshRAIDR:
		return NewRAIDR(g, DefaultRetentionBins())
	case config.RefreshPerBankSA:
		if g.Subarrays <= 1 {
			return nil, fmt.Errorf("refresh: perbanksa requires SubarraysPerBank > 1")
		}
		return NewPerBankSA(g, g.Subarrays), nil
	default:
		return nil, fmt.Errorf("refresh: unknown policy %q", p)
	}
}

// NoRefresh never refreshes; it models the ideal refresh-free bound used
// to normalize Figures 3 and 4.
type NoRefresh struct{}

// Name implements Scheduler.
func (*NoRefresh) Name() string { return "none" }

// Interval implements Scheduler with an effectively-infinite period.
func (*NoRefresh) Interval() uint64 { return 1 << 40 }

// Next implements Scheduler; it always skips.
func (*NoRefresh) Next(sim.Time, QueueView) Target { return Target{Skip: true} }
