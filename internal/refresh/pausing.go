package refresh

import "refsched/internal/sim"

// Pauser is implemented by policies that support refresh pausing (Nair
// et al., HPCA 2013). When a demand request targets a refreshing bank,
// the memory controller asks RequestPause; if granted it aborts the
// refresh (after a small re-precharge penalty) and reports the remaining
// duration via Paused so the policy can reschedule it.
type Pauser interface {
	// RequestPause reports whether the in-progress refresh on rank may
	// be paused now (policies refuse once the per-command pause budget
	// is spent, so commands cannot fragment unboundedly).
	RequestPause(st *State, rank int) bool
	// Paused records the paused remainder for the given rank.
	Paused(st *State, rank int, remaining uint64)
	// PausePenalty is the re-precharge cost charged to the bank when a
	// refresh is aborted, in cycles.
	PausePenalty() uint64
}

// maxPausesPerCmd bounds how often one refresh command may be
// interrupted (real implementations have a handful of pause points).
const maxPausesPerCmd = 4

// Pausing is all-bank refresh with refresh pausing: a refresh in
// progress yields to demand requests, and the remainder is reissued
// when the rank goes idle — or immediately once the pause budget or the
// postponement debt runs out. New commands are all-bank refresh's in
// 1x mode.
type Pausing struct {
	*FGR
}

// NewPausing builds the policy.
func NewPausing(g Geometry) *Pausing { return &Pausing{mustFGR(g, 1)} }

func (p *Pausing) init(st *State) {
	st.Remainder = make([]uint64, p.g.Ranks)
	st.PausesSpent = make([]int, p.g.Ranks)
}

// Next implements Scheduler. Remainders take priority over new
// commands; new commands rotate ranks as in plain all-bank refresh.
func (p *Pausing) Next(now sim.Time, q QueueView, st *State) Target {
	// Reissue the first paused remainder.
	for r, rem := range st.Remainder {
		if rem == 0 {
			continue
		}
		st.Remainder[r] = 0
		st.Resumes++
		// Rows were credited when the original command issued.
		return Target{AllBank: true, Rank: r, Rows: 0, Dur: rem}
	}
	t := p.FGR.Next(now, q, st)
	st.PausesSpent[t.Rank] = 0
	return t
}

// RequestPause implements Pauser: grant while the rank's per-command
// pause budget lasts.
func (p *Pausing) RequestPause(st *State, rank int) bool {
	return st.PausesSpent[rank] < maxPausesPerCmd
}

// Paused implements Pauser.
func (p *Pausing) Paused(st *State, rank int, remaining uint64) {
	st.PausesSpent[rank]++
	st.Remainder[rank] += remaining
}

// PausePenalty implements Pauser: a precharge before the demand access.
func (p *Pausing) PausePenalty() uint64 { return p.g.Timing.TRP }
