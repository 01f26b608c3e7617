package refresh

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/sim"
)

func geo(t *testing.T, scale uint64) Geometry {
	t.Helper()
	cfg := config.Default(config.Density32Gb, scale)
	tm := dram.TimingFrom(&cfg)
	return Geometry{Ranks: cfg.Mem.Ranks(), BanksPerRank: cfg.Mem.BanksPerRank, Timing: &tm}
}

// fakeQueue is a controllable QueueView.
type fakeQueue struct {
	perBank []int
	util    float64
}

func (q *fakeQueue) OutstandingToBank(g int) int { return q.perBank[g] }
func (q *fakeQueue) Utilization() float64        { return q.util }

func TestNewBuildsEveryPolicy(t *testing.T) {
	g := geo(t, 64)
	for _, p := range []config.RefreshPolicy{
		config.RefreshNone, config.RefreshAllBank, config.RefreshPerBankRR,
		config.RefreshPerBankSeq, config.RefreshOOOPerBank,
		config.RefreshFGR2x, config.RefreshFGR4x, config.RefreshAdaptive,
	} {
		s, err := New(p, g)
		if err != nil {
			t.Fatalf("New(%s): %v", p, err)
		}
		if s.Interval() == 0 {
			t.Errorf("%s: zero interval", p)
		}
	}
	if _, err := New("bogus", g); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestNoRefreshAlwaysSkips(t *testing.T) {
	var n NoRefresh
	if tgt := n.Next(0, nil); !tgt.Skip {
		t.Fatal("NoRefresh issued a command")
	}
}

func TestAllBankRotatesRanksAndCoversRows(t *testing.T) {
	g := geo(t, 64)
	a, err := NewFGR(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Interval() != g.Timing.TREFIab/uint64(g.Ranks) {
		t.Fatalf("interval = %d", a.Interval())
	}
	t0 := a.Next(0, nil)
	t1 := a.Next(0, nil)
	t2 := a.Next(0, nil)
	if !t0.AllBank || t0.Rank != 0 || t1.Rank != 1 || t2.Rank != 0 {
		t.Fatalf("rank rotation: %d %d %d", t0.Rank, t1.Rank, t2.Rank)
	}
	if t0.Dur != g.Timing.TRFCab {
		t.Fatalf("dur = %d, want tRFCab %d", t0.Dur, g.Timing.TRFCab)
	}
	// One window of commands per rank must cover the bank.
	cmds := g.Timing.TREFW / g.Timing.TREFIab
	if cmds*t0.Rows < g.Timing.RowsPerBank {
		t.Fatalf("coverage: %d cmds x %d rows < %d", cmds, t0.Rows, g.Timing.RowsPerBank)
	}
}

func TestPerBankRRVisitsAllBanksUniformly(t *testing.T) {
	g := geo(t, 64)
	p := NewPerBankRR(g)
	counts := make([]int, g.TotalBanks())
	for i := 0; i < 3*g.TotalBanks(); i++ {
		tgt := p.Next(0, nil)
		if tgt.AllBank || tgt.Skip {
			t.Fatal("per-bank policy issued non-per-bank command")
		}
		counts[tgt.GlobalBank]++
	}
	for b, c := range counts {
		if c != 3 {
			t.Fatalf("bank %d visited %d times, want 3", b, c)
		}
	}
	if tgt := p.Next(0, nil); tgt.Dur != g.Timing.TRFCpb {
		t.Fatalf("dur = %d, want tRFCpb", tgt.Dur)
	}
}

// TestPerBankSeqSlotConfinement verifies the defining property of the
// proposed schedule: all commands during slot k target bank k.
func TestPerBankSeqSlotConfinement(t *testing.T) {
	g := geo(t, 64)
	p := NewPerBankSeq(g)
	slot := p.SlotCycles()
	interval := p.Interval()
	total := uint64(g.TotalBanks())

	for tick := uint64(0); tick*interval < 2*g.Timing.TREFW; tick++ {
		now := sim.Time(tick * interval)
		tgt := p.Next(now, nil)
		wantBank := int(uint64(now) / slot % total)
		if tgt.GlobalBank != wantBank {
			t.Fatalf("at %d: refreshing bank %d, slot owner %d", now, tgt.GlobalBank, wantBank)
		}
	}
}

// TestPerBankSeqAlg1Order verifies the verbatim Algorithm 1 transcription
// walks banks in rank-major order, finishing each bank before advancing.
func TestPerBankSeqAlg1Order(t *testing.T) {
	g := geo(t, 64)
	p := NewPerBankSeq(g)
	cmdsPerBank := g.Timing.TREFW / (p.Interval() * uint64(g.TotalBanks()))

	for bank := 0; bank < g.TotalBanks(); bank++ {
		for c := uint64(0); c < cmdsPerBank; c++ {
			got := p.AdvanceAlg1()
			if got != bank {
				t.Fatalf("command %d of bank %d targeted bank %d", c, bank, got)
			}
		}
	}
	// Wraps back to bank 0.
	if got := p.AdvanceAlg1(); got != 0 {
		t.Fatalf("after full sweep, next bank = %d, want 0", got)
	}
}

// TestPerBankSeqCoverage: each bank receives its full row budget within
// its slot.
func TestPerBankSeqCoverage(t *testing.T) {
	g := geo(t, 64)
	p := NewPerBankSeq(g)
	interval := p.Interval()
	rows := make([]uint64, g.TotalBanks())
	for tick := uint64(0); tick*interval < g.Timing.TREFW; tick++ {
		tgt := p.Next(sim.Time(tick*interval), nil)
		rows[tgt.GlobalBank] += tgt.Rows
	}
	for b, r := range rows {
		if r < g.Timing.RowsPerBank {
			t.Errorf("bank %d refreshed %d rows in one window, want >= %d", b, r, g.Timing.RowsPerBank)
		}
	}
}

func TestOOOPerBankPrefersIdleBanks(t *testing.T) {
	g := geo(t, 64)
	p := NewOOOPerBank(g)
	q := &fakeQueue{perBank: make([]int, g.TotalBanks())}
	for i := range q.perBank {
		q.perBank[i] = 10
	}
	q.perBank[5] = 0 // bank 5 is idle
	tgt := p.Next(0, q)
	if tgt.GlobalBank != 5 {
		t.Fatalf("OOO picked bank %d, want idle bank 5", tgt.GlobalBank)
	}
}

// TestOOOPerBankCompletesWindow: even with a pathologically idle bank
// always available, every bank still receives its full command budget
// within the window (the forcing rule).
func TestOOOPerBankCompletesWindow(t *testing.T) {
	g := geo(t, 64)
	p := NewOOOPerBank(g)
	q := &fakeQueue{perBank: make([]int, g.TotalBanks())}
	for i := range q.perBank {
		q.perBank[i] = i // bank 0 always least loaded
	}
	counts := make([]uint64, g.TotalBanks())
	interval := p.Interval()
	for tick := uint64(0); tick*interval < g.Timing.TREFW; tick++ {
		tgt := p.Next(sim.Time(tick*interval), q)
		if !tgt.Skip {
			counts[tgt.GlobalBank]++
		}
	}
	for b, c := range counts {
		if c*p.rows < g.Timing.RowsPerBank {
			t.Errorf("bank %d got %d commands (%d rows), below full coverage %d",
				b, c, c*p.rows, g.Timing.RowsPerBank)
		}
	}
}

func TestFGRScaling(t *testing.T) {
	g := geo(t, 64)
	f1 := mustFGR(g, 1)
	f2 := mustFGR(g, 2)
	f4 := mustFGR(g, 4)
	if f2.Interval() != f1.Interval()/2 || f4.Interval() != f1.Interval()/4 {
		t.Fatal("FGR intervals do not halve/quarter")
	}
	d1 := f1.Next(0, nil).Dur
	d2 := f2.Next(0, nil).Dur
	d4 := f4.Next(0, nil).Dur
	if d2 != uint64(float64(d1)/1.35) || d4 != uint64(float64(d1)/1.63) {
		t.Fatalf("FGR durations: 1x=%d 2x=%d 4x=%d", d1, d2, d4)
	}
	// Total refresh-busy time per window grows with mode: that is why
	// 2x/4x fare worse.
	busy := func(f *FGR) uint64 {
		cmds := g.Timing.TREFW / (f.Interval() * uint64(g.Ranks))
		return cmds * f.dur
	}
	if !(busy(f1) < busy(f2) && busy(f2) < busy(f4)) {
		t.Fatalf("busy time not increasing: %d %d %d", busy(f1), busy(f2), busy(f4))
	}
}

// TestFGRInvalidModes: every mode DDR4 does not define must be rejected
// as a configuration error at construction — never a panic, so one
// misconfigured sweep cell cannot crash a batch.
func TestFGRInvalidModes(t *testing.T) {
	g := geo(t, 64)
	for _, mode := range []int{-4, -1, 0, 3, 5, 8, 16} {
		f, err := NewFGR(g, mode)
		if err == nil || f != nil {
			t.Errorf("NewFGR(mode=%d) = %v, %v; want nil, error", mode, f, err)
		}
	}
	for _, mode := range []int{1, 2, 4} {
		f, err := NewFGR(g, mode)
		if err != nil || f == nil {
			t.Errorf("NewFGR(mode=%d) = %v, %v; want policy, nil", mode, f, err)
		}
	}
}

func TestAdaptiveSwitchesOnUtilization(t *testing.T) {
	g := geo(t, 64)
	a := NewAdaptive(g, 1000, 0.5)
	q := &fakeQueue{perBank: make([]int, g.TotalBanks())}

	// Low utilization -> 4x mode.
	q.util = 0.1
	a.Next(0, q)
	if a.Mode() != 4 {
		t.Fatalf("mode = %dx at low utilization, want 4x", a.Mode())
	}
	// High utilization at the next epoch -> 1x mode.
	q.util = 0.9
	a.Next(2000, q)
	if a.Mode() != 1 {
		t.Fatalf("mode = %dx at high utilization, want 1x", a.Mode())
	}
	if a.ModeSwitches == 0 {
		t.Fatal("mode switch not counted")
	}
	// Within the same epoch, no re-evaluation.
	q.util = 0.0
	a.Next(2001, q)
	if a.Mode() != 1 {
		t.Fatal("mode changed mid-epoch")
	}
}

func TestPerBankParamsCoverAllDensities(t *testing.T) {
	for _, d := range config.Densities {
		cfg := config.Default(d, 64)
		tm := dram.TimingFrom(&cfg)
		g := Geometry{Ranks: 2, BanksPerRank: 8, Timing: &tm}
		interval, cmds, rows := perBankParams(g)
		if interval == 0 || cmds == 0 || rows == 0 {
			t.Fatalf("%s: degenerate params %d/%d/%d", d, interval, cmds, rows)
		}
		if cmds*rows < tm.RowsPerBank {
			t.Fatalf("%s: coverage shortfall", d)
		}
		// tRFCpb must fit within the per-bank interval, or refresh
		// would consume the whole bank.
		if tm.TRFCpb >= interval*uint64(g.TotalBanks()) {
			t.Fatalf("%s: tRFCpb %d exceeds per-bank period", d, tm.TRFCpb)
		}
	}
}
