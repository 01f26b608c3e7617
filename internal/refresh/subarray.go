package refresh

import "refsched/internal/sim"

// PerBankSA is per-bank refresh issued at subarray granularity: each
// command refreshes one subarray of one bank, leaving the bank's other
// subarrays serving requests. It models the DRAM-modification direction
// of Chang et al. (HPCA 2014) and Zhang et al. (HPCA 2014) that the
// paper's Section 7 names as the natural hardware extension of the
// co-design (subarray-level soft partitioning).
//
// Commands rotate over (bank, subarray) pairs: all banks' subarray 0,
// then all banks' subarray 1, and so on, so per-bank blocking is 1/S of
// plain per-bank refresh at any instant.
type PerBankSA struct {
	g        Geometry
	subs     int
	interval uint64
	rows     uint64
	dur      uint64
}

// NewPerBankSA builds the policy for banks with subs subarrays.
func NewPerBankSA(g Geometry, subs int) *PerBankSA {
	if subs < 1 {
		subs = 1
	}
	p := &PerBankSA{g: g, subs: subs}
	interval, cmdsPerBank, _ := perBankParams(g)
	// Commands are subs times more frequent and each covers 1/subs of
	// the per-command row budget, so window coverage is preserved.
	p.interval = interval / uint64(subs)
	if p.interval == 0 {
		p.interval = 1
	}
	totalCmdsPerBank := cmdsPerBank * uint64(subs)
	p.rows = g.Timing.RowsPerRefresh(totalCmdsPerBank)
	// Refreshing 1/subs of the rows takes proportionally less time,
	// floored at one row-refresh cycle (tRAS+tRP).
	p.dur = g.Timing.TRFCpb / uint64(subs)
	if floor := g.Timing.TRAS + g.Timing.TRP; p.dur < floor {
		p.dur = floor
	}
	return p
}

// Interval implements Scheduler.
func (p *PerBankSA) Interval(*State) uint64 { return p.interval }

// Next implements Scheduler.
func (p *PerBankSA) Next(_ sim.Time, _ QueueView, st *State) Target {
	t := Target{
		GlobalBank:    st.NextBank,
		Subarray:      st.NextSub,
		SubarrayLevel: true,
		Rows:          p.rows,
		Dur:           p.dur,
	}
	st.NextBank++
	if st.NextBank >= p.g.TotalBanks() {
		st.NextBank = 0
		st.NextSub = (st.NextSub + 1) % p.subs
	}
	return t
}
