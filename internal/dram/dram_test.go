package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"refsched/internal/config"
)

func testTiming(t *testing.T) (*Timing, config.System) {
	t.Helper()
	cfg := config.Default(config.Density32Gb, 64)
	tm := TimingFrom(&cfg)
	return &tm, cfg
}

func TestMapperRoundTrip(t *testing.T) {
	cfg := config.Default(config.Density32Gb, 1)
	m, err := NewMapper(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint64) bool {
		addr := raw % (cfg.Mem.TotalCapacity())
		c := m.Decode(addr)
		return m.Encode(c) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMapperPageInterleaving(t *testing.T) {
	cfg := config.Default(config.Density32Gb, 1)
	m, err := NewMapper(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive page frames cycle through all 16 banks before
	// repeating — the BLP-friendly mapping.
	seen := map[int]bool{}
	for pfn := uint64(0); pfn < 16; pfn++ {
		g := m.PageGlobalBank(pfn)
		if seen[g] {
			t.Fatalf("bank %d repeated within the first 16 pages", g)
		}
		seen[g] = true
	}
	// Same page offset, different rows, same bank.
	if m.PageGlobalBank(0) != m.PageGlobalBank(16) {
		t.Fatal("pages 0 and 16 should map to the same bank")
	}
}

// TestPageGlobalBankMatchesCoord: the one-shift bank lookup agrees with
// decoding the full coordinate, over every power-of-two geometry the
// allocator can see.
func TestPageGlobalBankMatchesCoord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, channels := range []int{1, 2, 4} {
		for _, ranks := range []int{1, 2, 4} {
			for _, banks := range []int{4, 8, 16} {
				cfg := config.Default(config.Density8Gb, 1)
				cfg.Mem.Channels = channels
				cfg.Mem.DIMMsPerChannel = 1
				cfg.Mem.RanksPerDIMM = ranks
				cfg.Mem.BanksPerRank = banks
				m, err := NewMapper(cfg.Mem)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2000; i++ {
					pfn := rng.Uint64() % m.TotalPages()
					got := m.PageGlobalBank(pfn)
					if want := m.PageCoord(pfn).GlobalBank(m.BanksPerRank()); got != want {
						t.Fatalf("%dch/%drk/%dbk pfn %d: PageGlobalBank = %d, want %d",
							channels, ranks, banks, pfn, got, want)
					}
				}
			}
		}
	}
}

func TestMapperCoordinateFields(t *testing.T) {
	cfg := config.Default(config.Density32Gb, 1)
	m, _ := NewMapper(cfg.Mem)
	c := m.Decode(0x1234)
	if c.Row != 0 || c.Col != 0x234 || c.Bank != 1 {
		t.Fatalf("Decode(0x1234) = %+v", c)
	}
	if got := c.GlobalBank(8); got != c.Rank*8+c.Bank {
		t.Fatalf("GlobalBank = %d", got)
	}
	if m.TotalPages() != 16*512*1024 {
		t.Fatalf("TotalPages = %d", m.TotalPages())
	}
}

func TestMapperRejectsNonPowerOfTwo(t *testing.T) {
	cfg := config.Default(config.Density32Gb, 1)
	cfg.Mem.BanksPerRank = 6
	if _, err := NewMapper(cfg.Mem); err == nil {
		t.Fatal("expected error for 6 banks per rank")
	}
}

func TestBankRowHitTiming(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBank()

	// First access: closed row -> ACT + CAS.
	p1 := b.PlanAccess(100, 0, 7, false, tm)
	if p1.RowHit || p1.Conflict {
		t.Fatalf("first access classified %+v", p1)
	}
	if p1.DataStart != 100+tm.TRCD+tm.TCL {
		t.Fatalf("closed-row data at %d, want %d", p1.DataStart, 100+tm.TRCD+tm.TCL)
	}
	b.Commit(p1, tm)
	if b.OpenRow() != 7 {
		t.Fatalf("open row = %d", b.OpenRow())
	}

	// Same row again: hit, CAS only.
	start := p1.BankReady
	p2 := b.PlanAccess(start, 0, 7, false, tm)
	if !p2.RowHit {
		t.Fatal("second access to same row should hit")
	}
	if p2.DataStart != start+tm.TCL {
		t.Fatalf("row-hit data at %d, want %d", p2.DataStart, start+tm.TCL)
	}
	b.Commit(p2, tm)

	if b.Stats.RowHits != 1 || b.Stats.RowMisses != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBankConflictRespectsTRASAndTWR(t *testing.T) {
	tm, _ := testTiming(t)

	// Conflict must wait for tRAS since activate.
	b := NewBank()
	p1 := b.PlanAccess(0, 0, 1, false, tm)
	b.Commit(p1, tm)
	p2 := b.PlanAccess(p1.BankReady, 0, 2, false, tm)
	if !p2.Conflict {
		t.Fatal("row change should conflict")
	}
	wantPRE := p1.Start + tm.TRAS // activate at p1.Start
	if p2.Start < wantPRE {
		t.Fatalf("precharge at %d before tRAS bound %d", p2.Start, wantPRE)
	}

	// After a write, precharge additionally waits for write recovery.
	bw := NewBank()
	w := bw.PlanAccess(0, 0, 1, true, tm)
	bw.Commit(w, tm)
	c := bw.PlanAccess(w.BankReady, 0, 2, false, tm)
	if c.Start < w.DataEnd+tm.TWR {
		t.Fatalf("precharge at %d ignores tWR bound %d", c.Start, w.DataEnd+tm.TWR)
	}
}

func TestBankRefreshBlocksAccess(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBank()
	end := b.StartRefresh(1000, tm.TRFCpb, 64, tm)
	if end != 1000+tm.TRFCpb {
		t.Fatalf("refresh end = %d", end)
	}
	// The bank is monolithic, so every row is blocked for exactly the
	// refresh window.
	if !b.RefreshingRow(3, 1000) || !b.RefreshingRow(3, end-1) || b.RefreshingRow(3, end) {
		t.Fatal("RefreshingRow() window wrong")
	}
	p := b.PlanAccess(1000, 0, 3, false, tm)
	if p.Start < end {
		t.Fatalf("access planned at %d during refresh (ends %d)", p.Start, end)
	}
	if b.OpenRow() != -1 {
		t.Fatal("refresh should precharge the bank")
	}
}

func TestBankRefreshWaitsForInFlightCommand(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBank()
	p := b.PlanAccess(0, 0, 1, false, tm)
	b.Commit(p, tm)
	end := b.StartRefresh(1, tm.TRFCpb, 64, tm)
	if end < p.BankReady+tm.TRFCpb {
		t.Fatalf("refresh finished %d, before in-flight command bound %d", end, p.BankReady+tm.TRFCpb)
	}
}

func TestChannelBusSerializesBursts(t *testing.T) {
	tm, cfg := testTiming(t)
	ch := NewChannel(0, cfg.Mem, tm)
	// Two concurrent accesses to different banks: second's data must
	// start after the first's burst ends.
	c1 := Coord{Rank: 0, Bank: 0, Row: 1}
	c2 := Coord{Rank: 0, Bank: 1, Row: 1}
	p1 := ch.Plan(0, c1, false)
	ch.Commit(c1, p1)
	p2 := ch.Plan(0, c2, false)
	ch.Commit(c2, p2)
	if p2.DataStart < p1.DataEnd {
		t.Fatalf("bursts overlap: %d < %d", p2.DataStart, p1.DataEnd)
	}
	if ch.BusFree() != p2.DataEnd {
		t.Fatalf("BusFree = %d, want %d", ch.BusFree(), p2.DataEnd)
	}
}

func TestChannelRefreshRankBlocksAllBanks(t *testing.T) {
	tm, cfg := testTiming(t)
	ch := NewChannel(0, cfg.Mem, tm)
	end := ch.RefreshRank(500, 0, tm.TRFCab, 64)
	for bk := 0; bk < cfg.Mem.BanksPerRank; bk++ {
		if !ch.BankAt(0, bk).RefreshingRow(0, end-1) {
			t.Fatalf("rank-0 bank %d not refreshing", bk)
		}
		if ch.BankAt(1, bk).RefreshingRow(0, end-1) {
			t.Fatalf("rank-1 bank %d wrongly refreshing", bk)
		}
	}
	st := ch.Stats()
	if st.Refreshes != uint64(cfg.Mem.BanksPerRank) {
		t.Fatalf("refresh count = %d", st.Refreshes)
	}
	if st.RowsRefreshed != 64*uint64(cfg.Mem.BanksPerRank) {
		t.Fatalf("rows refreshed = %d", st.RowsRefreshed)
	}
}

func TestTimingRefreshMath(t *testing.T) {
	tm, _ := testTiming(t)
	cmds := tm.RefreshCmdsPerWindow()
	rows := tm.RowsPerRefresh(cmds)
	// Full coverage: cmds * rows >= rows per bank.
	if cmds*rows < tm.RowsPerBank {
		t.Fatalf("coverage %d*%d < %d", cmds, rows, tm.RowsPerBank)
	}
	if tm.RowsPerRefresh(0) != tm.RowsPerBank {
		t.Fatal("zero cmds should demand all rows in one shot")
	}
}

func TestTimingScaleKeepsNSParams(t *testing.T) {
	cfg1 := config.Default(config.Density32Gb, 1)
	cfg64 := config.Default(config.Density32Gb, 64)
	t1, t64 := TimingFrom(&cfg1), TimingFrom(&cfg64)
	if t1.TCL != t64.TCL || t1.TRFCab != t64.TRFCab || t1.TREFIab != t64.TREFIab {
		t.Fatal("scaling changed ns-magnitude timings")
	}
	if t64.TREFW*64 != t1.TREFW {
		t.Fatalf("TREFW scaling: %d*64 != %d", t64.TREFW, t1.TREFW)
	}
}
