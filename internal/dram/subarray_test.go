package dram

import (
	"testing"

	"refsched/internal/config"
)

func TestSubarrayRefreshBlocksOnlyItsRows(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBankWithSubarrays(4)
	if b.Subarrays() != 4 {
		t.Fatalf("Subarrays = %d", b.Subarrays())
	}
	// Refresh subarray 1 (rows ≡ 1 mod 4).
	end := b.StartSubarrayRefresh(1000, 1, tm.TRFCpb, 64, tm)
	if end != 1000+tm.TRFCpb {
		t.Fatalf("refresh end = %d", end)
	}
	if !b.RefreshingRow(5, 1500) {
		t.Fatal("row 5 (subarray 1) should be blocked")
	}
	if b.RefreshingRow(6, 1500) {
		t.Fatal("row 6 (subarray 2) should be accessible")
	}
	// An access to another subarray proceeds immediately.
	p := b.PlanAccess(1500, 0, 6, false, tm)
	if p.Start != 1500 {
		t.Fatalf("cross-subarray access delayed to %d", p.Start)
	}
	// An access to the refreshing subarray waits.
	p2 := b.PlanAccess(1500, 0, 5, false, tm)
	if p2.Start < end {
		t.Fatalf("same-subarray access at %d before refresh end %d", p2.Start, end)
	}
}

func TestSubarrayRefreshClosesConflictingOpenRow(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBankWithSubarrays(4)
	// Open row 9 (subarray 1).
	p := b.PlanAccess(0, 0, 9, false, tm)
	b.Commit(p, tm)
	if b.OpenRow() != 9 {
		t.Fatal("row not open")
	}
	// Refreshing subarray 1 must close it (and wait for tRAS).
	b.StartSubarrayRefresh(p.BankReady, 1, tm.TRFCpb, 64, tm)
	if b.OpenRow() != -1 {
		t.Fatal("conflicting open row survived subarray refresh")
	}
	// Refreshing a different subarray leaves an open row alone.
	b2 := NewBankWithSubarrays(4)
	p2 := b2.PlanAccess(0, 0, 8, false, tm) // subarray 0
	b2.Commit(p2, tm)
	b2.StartSubarrayRefresh(p2.BankReady, 3, tm.TRFCpb, 64, tm)
	if b2.OpenRow() != 8 {
		t.Fatal("unrelated subarray refresh closed the open row")
	}
}

func TestMonolithicBankFallsBackToBankRefresh(t *testing.T) {
	tm, _ := testTiming(t)
	b := NewBank()
	end := b.StartSubarrayRefresh(0, 2, tm.TRFCpb, 64, tm)
	if !b.RefreshingRow(12345, end-1) {
		t.Fatal("monolithic fallback did not refresh the bank")
	}
	if b.SubarrayOf(12345) != 0 {
		t.Fatal("monolithic subarray mapping should be 0")
	}
}

func TestChannelWithSubarrays(t *testing.T) {
	_, cfg := testTiming(t)
	cfg.Mem.SubarraysPerBank = 8
	tm := TimingFrom(&cfg)
	ch := NewChannel(0, cfg.Mem, &tm)
	if ch.Bank(0).Subarrays() != 8 {
		t.Fatalf("channel banks have %d subarrays", ch.Bank(0).Subarrays())
	}
	end := ch.RefreshSubarray(100, 3, 2, tm.TRFCpb, 32)
	if !ch.Bank(3).RefreshingRow(2, end-1) {
		t.Fatal("subarray refresh not applied")
	}
	if ch.Bank(3).RefreshingRow(3, end-1) {
		t.Fatal("wrong subarray blocked")
	}
}

func TestConfigSubarrayDefaultMonolithic(t *testing.T) {
	cfg := config.Default(config.Density32Gb, 64)
	if cfg.Mem.SubarraysPerBank > 1 {
		t.Fatal("default config should be monolithic (Table 1 has no subarray support)")
	}
}
