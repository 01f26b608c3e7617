package refresh

import "refsched/internal/sim"

// perBankParams derives the shared per-bank refresh parameters: commands
// are issued every tREFIab/totalBanks so that each bank receives its full
// row budget once per retention window.
func perBankParams(g Geometry) (interval uint64, cmdsPerBank uint64, rows uint64) {
	tm := g.Timing
	total := uint64(g.TotalBanks())
	interval = tm.TREFIab / total
	if interval == 0 {
		interval = 1
	}
	cmdsPerBank = tm.TREFW / (interval * total)
	if cmdsPerBank == 0 {
		cmdsPerBank = 1
	}
	rows = tm.RowsPerRefresh(cmdsPerBank)
	return
}

// PerBankRR is the LPDDR3 per-bank refresh baseline: refresh commands
// rotate round-robin over every bank of every rank, so each bank is
// briefly refresh-busy once per tREFIab and refresh activity is smeared
// uniformly over the whole window.
type PerBankRR struct {
	g        Geometry
	interval uint64
	rows     uint64
}

// NewPerBankRR builds the policy.
func NewPerBankRR(g Geometry) *PerBankRR {
	p := &PerBankRR{g: g}
	p.interval, _, p.rows = perBankParams(g)
	return p
}

// Interval implements Scheduler.
func (p *PerBankRR) Interval(*State) uint64 { return p.interval }

// Next implements Scheduler, rotating over all banks.
func (p *PerBankRR) Next(_ sim.Time, _ QueueView, st *State) Target {
	b := st.NextBank
	st.NextBank = (b + 1) % p.g.TotalBanks()
	return Target{GlobalBank: b, Rows: p.rows, Dur: p.g.Timing.TRFCpb}
}

// PerBankSeq is the paper's proposed refresh schedule (Algorithm 1):
// successive refresh intervals keep targeting the *same* bank, walking
// its rows, until the entire bank has been refreshed; only then does the
// schedule advance to the next bank (and, after the last bank of a rank,
// to the next rank). The effect is that each bank's refresh activity is
// confined to one contiguous slot of tREFW/totalBanks — 4 ms for the
// paper's 16-bank, 64 ms system — and the bank is guaranteed
// refresh-free for the rest of the window. That guarantee is what the
// refresh-aware OS scheduler exploits.
type PerBankSeq struct {
	g        Geometry
	interval uint64
	rows     uint64
	slot     uint64 // tREFW / totalBanks
}

// NewPerBankSeq builds the policy.
func NewPerBankSeq(g Geometry) *PerBankSeq {
	p := &PerBankSeq{g: g, slot: g.Timing.TREFW / uint64(g.TotalBanks())}
	p.interval, _, p.rows = perBankParams(g)
	return p
}

// Interval implements Scheduler.
func (p *PerBankSeq) Interval(*State) uint64 { return p.interval }

// Next implements Scheduler. The target bank is the one whose slot
// contains the current time, which keeps the walk phase-locked to the
// tREFW/totalBanks grid that the OS scheduler aligns quanta against.
// On real hardware tREFIpb × totalBanks tiles tREFW exactly and this is
// identical to the count-based Algorithm 1 advance (see AdvanceAlg1,
// which transcribes the paper's pseudo-code and is property-tested to
// produce the same bank order); under integer time scaling, slot
// targeting avoids accumulating one residual interval of drift per
// window. The slot arithmetic is the whole decision, so the schedule
// keeps no state.
func (p *PerBankSeq) Next(now sim.Time, _ QueueView, _ *State) Target {
	return Target{GlobalBank: p.BankAtTime(now), Rows: p.rows, Dur: p.g.Timing.TRFCpb}
}

// Alg1 is Algorithm 1's walk state, in the paper's variable names.
type Alg1 struct {
	NextRefreshBank  int
	NextRefreshRank  int
	NumRowsRefreshed []uint64 // per global bank
}

// AdvanceAlg1 is a verbatim transcription of the paper's Algorithm 1:
// it returns the bank index to refresh this interval and advances w,
// staying on one bank until all of its rows are refreshed.
func (p *PerBankSeq) AdvanceAlg1(w *Alg1) int {
	if w.NumRowsRefreshed == nil {
		w.NumRowsRefreshed = make([]uint64, p.g.TotalBanks())
	}
	refreshBankIdx := w.NextRefreshRank*p.g.BanksPerRank + w.NextRefreshBank
	w.NumRowsRefreshed[refreshBankIdx] += p.rows
	if w.NumRowsRefreshed[refreshBankIdx] < p.g.Timing.RowsPerBank {
		// Keep refreshing this bank next interval.
		return refreshBankIdx
	}
	// Done refreshing the entire bank: advance to the next bank.
	w.NumRowsRefreshed[refreshBankIdx] = 0
	w.NextRefreshBank++
	if w.NextRefreshBank >= p.g.BanksPerRank {
		w.NextRefreshBank = 0
		w.NextRefreshRank = (w.NextRefreshRank + 1) % p.g.Ranks
	}
	return refreshBankIdx
}

// BankAtTime implements SlotPlanner: the global bank whose refresh slot
// contains t. This is the schedule the hardware exposes to the OS.
func (p *PerBankSeq) BankAtTime(t sim.Time) int {
	if p.slot == 0 {
		return 0
	}
	return int((uint64(t) / p.slot) % uint64(p.g.TotalBanks()))
}

// SlotCycles implements SlotPlanner.
func (p *PerBankSeq) SlotCycles() uint64 { return p.slot }

// OOOPerBank is out-of-order per-bank refresh (Chang et al., HPCA 2014):
// at each interval the controller refreshes the pending bank with the
// fewest outstanding demand requests, hoping to hide tRFCpb behind idle
// banks. Window completeness is enforced by a slack check: once the
// remaining intervals in the retention window equal the remaining
// commands, lagging banks are forced in round-robin order.
type OOOPerBank struct {
	g           Geometry
	interval    uint64
	rows        uint64
	cmdsPerBank uint64
}

// NewOOOPerBank builds the policy.
func NewOOOPerBank(g Geometry) *OOOPerBank {
	p := &OOOPerBank{g: g}
	p.interval, p.cmdsPerBank, p.rows = perBankParams(g)
	return p
}

func (p *OOOPerBank) init(st *State) { st.Remaining = make([]uint64, p.g.TotalBanks()) }

// Interval implements Scheduler.
func (p *OOOPerBank) Interval(*State) uint64 { return p.interval }

// Next implements Scheduler.
func (p *OOOPerBank) Next(now sim.Time, q QueueView, st *State) Target {
	if now >= st.WindowEnd {
		// New retention window: every bank owes its full command budget.
		for i := range st.Remaining {
			st.Remaining[i] = p.cmdsPerBank
		}
		st.WindowEnd = now + sim.Time(p.g.Timing.TREFW)
	}

	var totalRemaining uint64
	for _, r := range st.Remaining {
		totalRemaining += r
	}
	if totalRemaining == 0 {
		return Target{Skip: true}
	}
	ticksLeft := uint64(st.WindowEnd-now) / p.interval

	pick := -1
	if ticksLeft <= totalRemaining {
		// No slack: force lagging banks round-robin so every bank
		// completes inside the window.
		for i := 0; i < p.g.TotalBanks(); i++ {
			b := (st.NextBank + i) % p.g.TotalBanks()
			if st.Remaining[b] > 0 {
				pick = b
				st.NextBank = (b + 1) % p.g.TotalBanks()
				break
			}
		}
	} else {
		// Slack available: pick the pending bank with the fewest queued
		// demand requests (ties to the lowest index).
		best := int(^uint(0) >> 1)
		for b := 0; b < p.g.TotalBanks(); b++ {
			if st.Remaining[b] == 0 {
				continue
			}
			n := 0
			if q != nil {
				n = q.OutstandingToBank(b)
			}
			if n < best {
				best = n
				pick = b
			}
		}
	}
	if pick < 0 {
		return Target{Skip: true}
	}
	st.Remaining[pick]--
	return Target{GlobalBank: pick, Rows: p.rows, Dur: p.g.Timing.TRFCpb}
}
