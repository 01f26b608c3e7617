package dram

import (
	"refsched/internal/config"
	"refsched/internal/sim"
)

// Channel models one DRAM channel: a grid of banks indexed by
// (rank, bank) plus the shared data bus.
type Channel struct {
	ID           int
	BanksPerRank int
	Timing       *Timing
	// ClosedPage auto-precharges after every access (row-policy
	// ablation; the default is open-row).
	ClosedPage bool

	banks   []*Bank // rank-major: index = rank*BanksPerRank + bank
	busFree sim.Time
}

// NewChannel builds an idle channel with the configured geometry.
func NewChannel(id int, mem config.MemConfig, tm *Timing) *Channel {
	n := mem.Ranks() * mem.BanksPerRank
	banks := make([]*Bank, n)
	for i := range banks {
		banks[i] = NewBankWithSubarrays(mem.SubarraysPerBank)
	}
	return &Channel{
		ID:           id,
		BanksPerRank: mem.BanksPerRank,
		Timing:       tm,
		ClosedPage:   mem.ClosedPage,
		banks:        banks,
	}
}

// TotalBanks returns the number of banks in this channel.
func (c *Channel) TotalBanks() int { return len(c.banks) }

// Bank returns the bank at flat index g (rank*BanksPerRank + bank).
func (c *Channel) Bank(g int) *Bank { return c.banks[g] }

// BankAt returns the bank at (rank, bank).
func (c *Channel) BankAt(rank, bank int) *Bank {
	return c.banks[rank*c.BanksPerRank+bank]
}

// BusFree returns when the data bus is next available.
func (c *Channel) BusFree() sim.Time { return c.busFree }

// Plan computes an access plan for the request coordinate at or after
// earliest, honouring the shared bus.
func (c *Channel) Plan(earliest sim.Time, co Coord, write bool) AccessPlan {
	b := c.BankAt(co.Rank, co.Bank)
	return b.PlanAccess(earliest, c.busFree, co.Row, write, c.Timing)
}

// Commit applies a plan to its bank and reserves the bus.
func (c *Channel) Commit(co Coord, p AccessPlan) {
	b := c.BankAt(co.Rank, co.Bank)
	b.Commit(p, c.Timing)
	if c.ClosedPage {
		b.AutoPrecharge(c.Timing)
	}
	if p.DataEnd > c.busFree {
		c.busFree = p.DataEnd
	}
}

// RefreshBank refreshes a single bank for dur cycles (per-bank refresh
// policies pass tRFCpb), covering rows rows. Returns the completion time.
func (c *Channel) RefreshBank(due sim.Time, g int, dur uint64, rows uint64) sim.Time {
	return c.banks[g].StartRefresh(due, dur, rows, c.Timing)
}

// RefreshSubarray refreshes one subarray of a bank, leaving the rest of
// the bank available. Returns the completion time.
func (c *Channel) RefreshSubarray(due sim.Time, g, sub int, dur uint64, rows uint64) sim.Time {
	return c.banks[g].StartSubarrayRefresh(due, sub, dur, rows, c.Timing)
}

// RefreshRank refreshes all banks of a rank simultaneously (all-bank
// refresh, tRFC duration dur — callers pass tRFCab or an FGR-scaled
// value), covering rows rows in each bank. The refresh starts once every
// bank in the rank is idle, and all banks complete together. Returns the
// completion time.
func (c *Channel) RefreshRank(due sim.Time, rank int, dur uint64, rows uint64) sim.Time {
	start := due
	for b := 0; b < c.BanksPerRank; b++ {
		bk := c.BankAt(rank, b)
		if bk.readyAt > start {
			start = bk.readyAt
		}
		if bk.writeRecoveryAt > start {
			start = bk.writeRecoveryAt
		}
		if m := bk.lastActAt + c.Timing.TRAS; bk.openRow >= 0 && m > start {
			start = m
		}
	}
	var end sim.Time
	for b := 0; b < c.BanksPerRank; b++ {
		e := c.BankAt(rank, b).StartRefresh(start, dur, rows, c.Timing)
		if e > end {
			end = e
		}
	}
	return end
}

// AbortRefresh pauses the in-progress refresh on a single bank (g >= 0)
// or on every bank of rank (g < 0), returning the largest remaining
// duration. Each affected bank frees after penalty cycles.
func (c *Channel) AbortRefresh(rank, g int, now sim.Time, penalty uint64) uint64 {
	if g >= 0 {
		return c.banks[g].AbortRefresh(now, penalty)
	}
	var remaining uint64
	for b := 0; b < c.BanksPerRank; b++ {
		if r := c.BankAt(rank, b).AbortRefresh(now, penalty); r > remaining {
			remaining = r
		}
	}
	return remaining
}

// Stats sums the per-bank counters across the channel.
func (c *Channel) Stats() BankStats {
	var s BankStats
	for _, b := range c.banks {
		s.Reads += b.Stats.Reads
		s.Writes += b.Stats.Writes
		s.RowHits += b.Stats.RowHits
		s.RowMisses += b.Stats.RowMisses
		s.RowConflicts += b.Stats.RowConflicts
		s.Refreshes += b.Stats.Refreshes
		s.RowsRefreshed += b.Stats.RowsRefreshed
		s.RefreshBusyCycles += b.Stats.RefreshBusyCycles
	}
	return s
}
