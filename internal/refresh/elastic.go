package refresh

import "refsched/internal/sim"

// maxPostponed is the DDRx auto-refresh postponement limit: a rank may
// owe at most this many deferred refresh commands (JEDEC allows 8).
const maxPostponed = 8

// Elastic is Elastic Refresh (Stuecheli et al., MICRO 2010): rank-level
// refresh commands are postponed while the rank has pending demand
// requests, hoping to slip them into idle periods; once a rank's debt
// reaches the JEDEC postponement limit the refresh is forced. Good for
// workloads with idle gaps; for memory-intensive workloads the debt
// saturates and behaviour degenerates to all-bank refresh, which is the
// published result the paper cites. Its commands, and the interval at
// which it re-evaluates them, are all-bank refresh's in 1x mode.
type Elastic struct {
	*FGR
}

// NewElastic builds the policy.
func NewElastic(g Geometry) *Elastic { return &Elastic{mustFGR(g, 1)} }

func (e *Elastic) init(st *State) {
	st.Debt = make([]int, e.g.Ranks)
	st.AccrueAt = make([]sim.Time, e.g.Ranks)
	for r := range st.AccrueAt {
		// Ranks accrue obligations every tREFIab, staggered.
		st.AccrueAt[r] = sim.Time(uint64(r) * e.interval)
	}
}

// rankIdle reports whether no queued demand request targets the rank.
func (e *Elastic) rankIdle(rank int, q QueueView) bool {
	if q == nil {
		return true
	}
	for b := 0; b < e.g.BanksPerRank; b++ {
		if q.OutstandingToBank(rank*e.g.BanksPerRank+b) > 0 {
			return false
		}
	}
	return true
}

// Next implements Scheduler.
func (e *Elastic) Next(now sim.Time, q QueueView, st *State) Target {
	// Accrue obligations that came due. Debt may pass the postponement
	// limit: an obligation that cannot be deferred further stays due
	// and is forced below.
	for r := range st.Debt {
		for now >= st.AccrueAt[r] {
			st.AccrueAt[r] += sim.Time(e.g.Timing.TREFIab)
			st.Debt[r]++
		}
	}

	// Forced: any rank at or beyond the limit refreshes immediately.
	force, forceDebt := -1, maxPostponed
	idle := -1
	for r, d := range st.Debt {
		if d >= forceDebt {
			force, forceDebt = r, d
		}
		if d > 0 && idle < 0 && e.rankIdle(r, q) {
			idle = r
		}
	}
	switch {
	case force >= 0:
		st.Debt[force]--
		st.ForcedIssues++
		return e.command(force)
	case idle >= 0:
		st.Debt[idle]--
		st.IdleIssues++
		return e.command(idle)
	default:
		return Target{Skip: true}
	}
}
