package refresh

import (
	"reflect"
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

func TestElasticDefersUnderLoadForcesAtLimit(t *testing.T) {
	g := geo(t, 64)
	e := NewElastic(g)
	st := stateOf(e)
	busy := &fakeQueue{perBank: make([]int, g.TotalBanks())}
	for i := range busy.perBank {
		busy.perBank[i] = 5 // everything loaded
	}
	interval := e.Interval(st)
	var issued, skipped int
	// Drive well past the postponement limit: forced issues must appear.
	for tick := uint64(1); tick <= uint64(maxPostponed+4)*uint64(g.Ranks)*2; tick++ {
		tgt := e.Next(sim.Time(tick*interval), busy, st)
		if tgt.Skip {
			skipped++
		} else {
			issued++
			if !tgt.AllBank {
				t.Fatal("elastic must issue rank-level refreshes")
			}
		}
	}
	if skipped == 0 {
		t.Fatal("elastic never postponed under load")
	}
	if st.ForcedIssues == 0 || st.ForcedIssues != uint64(issued) {
		t.Fatalf("%d forced of %d issued; want every command forced under full load", st.ForcedIssues, issued)
	}
	// Debt is bounded near the JEDEC limit.
	for r, d := range st.Debt {
		if d > maxPostponed+1 {
			t.Fatalf("rank %d debt %d exceeds limit", r, d)
		}
	}
}

func TestElasticIssuesImmediatelyWhenIdle(t *testing.T) {
	g := geo(t, 64)
	e := NewElastic(g)
	st := stateOf(e)
	idle := &fakeQueue{perBank: make([]int, g.TotalBanks())}
	interval := e.Interval(st)
	issued := 0
	for tick := uint64(1); tick <= 8; tick++ {
		if !e.Next(sim.Time(tick*interval), idle, st).Skip {
			issued++
		}
	}
	if issued == 0 || st.IdleIssues != uint64(issued) {
		t.Fatalf("idle system issued %d refreshes, %d counted idle", issued, st.IdleIssues)
	}
	if st.ForcedIssues != 0 {
		t.Fatal("idle system should never need forcing")
	}
}

// TestElasticConservesObligations: over a long horizon, issued commands
// keep up with accrued obligations (retention safety).
func TestElasticConservesObligations(t *testing.T) {
	g := geo(t, 64)
	e := NewElastic(g)
	st := stateOf(e)
	busy := &fakeQueue{perBank: make([]int, g.TotalBanks())}
	for i := range busy.perBank {
		busy.perBank[i] = 5
	}
	interval := e.Interval(st)
	issued := uint64(0)
	horizon := g.Timing.TREFW
	for tick := uint64(1); tick*interval <= horizon; tick++ {
		if !e.Next(sim.Time(tick*interval), busy, st).Skip {
			issued++
		}
	}
	accrued := horizon / g.Timing.TREFIab * uint64(g.Ranks)
	if issued+uint64(maxPostponed+1)*uint64(g.Ranks) < accrued {
		t.Fatalf("issued %d but accrued %d (beyond postponement slack)", issued, accrued)
	}
}

func TestPausingGrantsWithinBudget(t *testing.T) {
	g := geo(t, 64)
	p := NewPausing(g)
	st := stateOf(p)
	// Fresh command on rank 0.
	tgt := p.Next(0, nil, st)
	if !tgt.AllBank {
		t.Fatal("pausing issues rank-level refreshes")
	}
	r := tgt.Rank
	for i := 0; i < maxPausesPerCmd; i++ {
		if !p.RequestPause(st, r) {
			t.Fatalf("pause %d refused within budget", i)
		}
		p.Paused(st, r, 500)
	}
	if p.RequestPause(st, r) {
		t.Fatal("pause granted beyond budget")
	}
	if st.Remainder[r] != maxPausesPerCmd*500 {
		t.Fatalf("remainder = %d after %d pauses of 500", st.Remainder[r], maxPausesPerCmd)
	}
	// Resuming the remainder keeps the spent budget; the rank's next
	// new command restores it.
	if resumed := p.Next(0, nil, st); resumed.Rank != r || resumed.Dur != maxPausesPerCmd*500 || p.RequestPause(st, r) {
		t.Fatalf("resume %+v left the budget open", resumed)
	}
	for p.Next(0, nil, st).Rank != r {
	}
	if !p.RequestPause(st, r) {
		t.Fatal("a new command did not restore the pause budget")
	}
}

func TestPausingResumesRemainderFirst(t *testing.T) {
	g := geo(t, 64)
	p := NewPausing(g)
	st := stateOf(p)
	first := p.Next(0, nil, st)
	p.Paused(st, first.Rank, 777)
	resumed := p.Next(0, nil, st)
	if !resumed.AllBank || resumed.Rank != first.Rank || resumed.Dur != 777 {
		t.Fatalf("resume target = %+v", resumed)
	}
	if resumed.Rows != 0 {
		t.Fatal("resume must not double-count rows")
	}
	if st.Resumes != 1 {
		t.Fatalf("resumes = %d", st.Resumes)
	}
}

func TestPausingPenaltyIsPrecharge(t *testing.T) {
	g := geo(t, 64)
	p := NewPausing(g)
	if p.PausePenalty() != g.Timing.TRP {
		t.Fatalf("penalty = %d", p.PausePenalty())
	}
}

func TestRAIDRDecimatesToProfileRate(t *testing.T) {
	g := geo(t, 64)
	bins := DefaultRetentionBins()
	r, err := NewRAIDR(g, RetentionBins{})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 100000
	st := stateOf(r)
	issued := 0
	for i := 0; i < ticks; i++ {
		if !r.Next(0, nil, st).Skip {
			issued++
		}
	}
	rate := float64(issued) / ticks
	want := bins.RefreshRateFactor()
	if rate < want-0.01 || rate > want+0.01 {
		t.Fatalf("issue rate %v, profile demands %v", rate, want)
	}
	// RAIDR's headline: ~75% of refreshes eliminated.
	if want > 0.30 {
		t.Fatalf("default profile eliminates only %v", 1-want)
	}
}

func TestRAIDRRotatesBanks(t *testing.T) {
	g := geo(t, 64)
	// All rows weak: factor 1, no decimation — pure rotation.
	r, err := NewRAIDR(g, RetentionBins{OneWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(r)
	for want := 0; want < g.TotalBanks(); want++ {
		tgt := r.Next(0, nil, st)
		if tgt.Skip || tgt.GlobalBank != want {
			t.Fatalf("target %+v, want bank %d", tgt, want)
		}
	}
}

func TestRetentionBinsFactor(t *testing.T) {
	b := RetentionBins{OneWindow: 0.5, TwoWindow: 0.5}
	if f := b.RefreshRateFactor(); f != 0.75 {
		t.Fatalf("factor = %v", f)
	}
}

func TestNewBuildsExtensionPolicies(t *testing.T) {
	g := geo(t, 64)
	for p, want := range map[config.RefreshPolicy]Scheduler{
		config.RefreshElastic: &Elastic{}, config.RefreshPausing: &Pausing{}, config.RefreshRAIDR: &RAIDR{},
	} {
		s := mustNew(t, g, p)
		if reflect.TypeOf(s) != reflect.TypeOf(want) {
			t.Fatalf("New(%s) built a %T, want %T", p, s, want)
		}
	}
	// Pausing is the only Pauser.
	if _, ok := mustNew(t, g, config.RefreshPausing).(Pauser); !ok {
		t.Fatal("pausing policy does not implement Pauser")
	}
	if _, ok := mustNew(t, g, config.RefreshAllBank).(Pauser); ok {
		t.Fatal("all-bank policy unexpectedly implements Pauser")
	}
}

func mustNew(t *testing.T, g Geometry, p config.RefreshPolicy) Scheduler {
	t.Helper()
	s, _, err := New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
