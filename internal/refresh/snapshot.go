package refresh

import "refsched/internal/sim"

// State is the serializable mutable state of a refresh policy. It is a
// union across all policies — each policy reads and writes only its own
// fields — so one stable gob type covers the whole policy matrix and a
// snapshot stays decodable as policies gain fields.
type State struct {
	// FGR (all-bank) / Pausing rank rotation; PerBankRR / RAIDR bank
	// rotation.
	NextRank int
	Next     int

	// PerBankSeq (Algorithm 1 walk).
	NextRefreshBank  int
	NextRefreshRank  int
	NumRowsRefreshed []uint64

	// OOOPerBank window accounting.
	Remaining []uint64
	WindowEnd sim.Time
	ForceNext int

	// Adaptive mode selection (CurMode is the active FGR mode, 1 or 4;
	// One/FourNextRank are the sub-policies' rank rotations).
	CurMode      int
	NextEval     sim.Time
	ModeSwitches uint64
	OneNextRank  int
	FourNextRank int

	// Elastic debt.
	Debt         []int
	AccrueAt     []sim.Time
	ForcedIssues uint64
	IdleIssues   uint64

	// Pausing remainders.
	Remainder []uint64
	PauseCnt  []int
	Pauses    uint64
	Resumes   uint64

	// RAIDR decimation accumulator.
	Acc     float64
	Issued  uint64
	Skipped uint64

	// PerBankSA (bank, subarray) rotation.
	NextBank int
	NextSub  int
}

// Stateful is implemented by every policy with mutable decision state.
// NoRefresh is stateless and deliberately does not implement it.
type Stateful interface {
	State() State
	SetState(State)
}

func cloneU64(s []uint64) []uint64 { return append([]uint64(nil), s...) }

// State implements Stateful.
func (f *FGR) State() State { return State{NextRank: f.nextRank} }

// SetState implements Stateful.
func (f *FGR) SetState(s State) { f.nextRank = s.NextRank }

// State implements Stateful.
func (a *Adaptive) State() State {
	return State{
		CurMode:      a.cur.mode,
		NextEval:     a.nextEval,
		ModeSwitches: a.ModeSwitches,
		OneNextRank:  a.one.nextRank,
		FourNextRank: a.four.nextRank,
	}
}

// SetState implements Stateful.
func (a *Adaptive) SetState(s State) {
	if s.CurMode == 4 {
		a.cur = a.four
	} else {
		a.cur = a.one
	}
	a.nextEval = s.NextEval
	a.ModeSwitches = s.ModeSwitches
	a.one.nextRank = s.OneNextRank
	a.four.nextRank = s.FourNextRank
}

// State implements Stateful.
func (p *PerBankRR) State() State { return State{Next: p.next} }

// SetState implements Stateful.
func (p *PerBankRR) SetState(s State) { p.next = s.Next }

// State implements Stateful.
func (p *PerBankSeq) State() State {
	return State{
		NextRefreshBank:  p.nextRefreshBank,
		NextRefreshRank:  p.nextRefreshRank,
		NumRowsRefreshed: cloneU64(p.numRowsRefreshed),
	}
}

// SetState implements Stateful.
func (p *PerBankSeq) SetState(s State) {
	p.nextRefreshBank = s.NextRefreshBank
	p.nextRefreshRank = s.NextRefreshRank
	copy(p.numRowsRefreshed, s.NumRowsRefreshed)
}

// State implements Stateful.
func (p *OOOPerBank) State() State {
	return State{
		Remaining: cloneU64(p.remaining),
		WindowEnd: p.windowEnd,
		ForceNext: p.forceNext,
	}
}

// SetState implements Stateful.
func (p *OOOPerBank) SetState(s State) {
	copy(p.remaining, s.Remaining)
	p.windowEnd = s.WindowEnd
	p.forceNext = s.ForceNext
}

// State implements Stateful.
func (e *Elastic) State() State {
	return State{
		Debt:         append([]int(nil), e.debt...),
		AccrueAt:     append([]sim.Time(nil), e.accrueAt...),
		ForcedIssues: e.ForcedIssues,
		IdleIssues:   e.IdleIssues,
	}
}

// SetState implements Stateful.
func (e *Elastic) SetState(s State) {
	copy(e.debt, s.Debt)
	copy(e.accrueAt, s.AccrueAt)
	e.ForcedIssues = s.ForcedIssues
	e.IdleIssues = s.IdleIssues
}

// State implements Stateful.
func (p *Pausing) State() State {
	return State{
		NextRank:  p.nextRank,
		Remainder: cloneU64(p.remainder),
		PauseCnt:  append([]int(nil), p.pauses...),
		Pauses:    p.Pauses,
		Resumes:   p.Resumes,
	}
}

// SetState implements Stateful.
func (p *Pausing) SetState(s State) {
	p.nextRank = s.NextRank
	copy(p.remainder, s.Remainder)
	copy(p.pauses, s.PauseCnt)
	p.Pauses = s.Pauses
	p.Resumes = s.Resumes
}

// State implements Stateful.
func (r *RAIDR) State() State {
	return State{Next: r.next, Acc: r.acc, Issued: r.Issued, Skipped: r.Skipped}
}

// SetState implements Stateful.
func (r *RAIDR) SetState(s State) {
	r.next = s.Next
	r.acc = s.Acc
	r.Issued = s.Issued
	r.Skipped = s.Skipped
}

// State implements Stateful.
func (p *PerBankSA) State() State { return State{NextBank: p.nextBank, NextSub: p.nextSub} }

// SetState implements Stateful.
func (p *PerBankSA) SetState(s State) {
	p.nextBank = s.NextBank
	p.nextSub = s.NextSub
}
