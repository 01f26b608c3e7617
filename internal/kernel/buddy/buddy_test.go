package buddy

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
)

// TestExhaustionAndRecovery takes every frame of a one-block memory,
// each exactly once, and then finds none left.
func TestExhaustionAndRecovery(t *testing.T) {
	a, _ := New(1024)
	seen := map[uint64]bool{}
	for {
		p, ok := a.AllocPage()
		if !ok {
			break
		}
		if p >= 1024 || seen[p] {
			t.Fatalf("pfn %d out of range or allocated twice", p)
		}
		seen[p] = true
	}
	if len(seen) != 1024 {
		t.Fatalf("exhaustion after %d pages, want 1024", len(seen))
	}
	if _, ok := a.AllocPage(); ok {
		t.Fatal("alloc succeeded with zero free")
	}
}

func TestBankMaskOps(t *testing.T) {
	m := BankMask(0).Set(3).Set(7)
	if !m.Has(3) || !m.Has(7) || m.Has(0) {
		t.Fatalf("mask = %b", m)
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d", m.Count())
	}
	if AllBanks(16).Count() != 16 {
		t.Fatal("AllBanks(16) wrong")
	}
}

func partitionRig(t *testing.T) (*PartitionAllocator, *dram.Mapper) {
	t.Helper()
	cfg := config.Default(config.Density8Gb, 1)
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to a manageable frame count while keeping the bank
	// mapping: use only the first 4096 frames.
	bud, err := New(4096)
	if err != nil {
		t.Fatal(err)
	}
	return NewPartitionAllocator(bud, mapper), mapper
}

func TestPartitionHonorsMask(t *testing.T) {
	alloc, mapper := partitionRig(t)
	mask := BankMask(0).Set(2).Set(5).Set(11)
	last := -1
	for i := 0; i < 500; i++ {
		pfn, fellBack, ok := alloc.AllocPageFor(mask, &last)
		if !ok {
			t.Fatal("allocation failed with free memory")
		}
		if fellBack {
			t.Fatal("unexpected fallback")
		}
		if g := mapper.PageGlobalBank(pfn); !mask.Has(g) {
			t.Fatalf("page on bank %d outside mask", g)
		}
	}
}

func TestPartitionRoundRobinAcrossAllowedBanks(t *testing.T) {
	alloc, mapper := partitionRig(t)
	mask := BankMask(0).Set(1).Set(4).Set(9)
	last := -1
	var got []int
	for i := 0; i < 9; i++ {
		pfn, _, ok := alloc.AllocPageFor(mask, &last)
		if !ok {
			t.Fatal("alloc failed")
		}
		got = append(got, mapper.PageGlobalBank(pfn))
	}
	// Consecutive allocations must rotate 1 -> 4 -> 9 -> 1 ...
	want := []int{1, 4, 9, 1, 4, 9, 1, 4, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestPartitionFallbackWhenBanksExhausted(t *testing.T) {
	alloc, mapper := partitionRig(t)
	mask := BankMask(0).Set(0)
	last := -1
	// 4096 frames / 16 banks = 256 frames on bank 0.
	fallbacks := 0
	for i := 0; i < 400; i++ {
		pfn, fellBack, ok := alloc.AllocPageFor(mask, &last)
		if !ok {
			t.Fatal("alloc failed before memory exhausted")
		}
		if fellBack {
			fallbacks++
		} else if g := mapper.PageGlobalBank(pfn); g != 0 {
			t.Fatalf("non-fallback page on bank %d", g)
		}
	}
	if fallbacks != 400-256 {
		t.Fatalf("fallbacks = %d, want %d", fallbacks, 400-256)
	}
	if alloc.Stats.Fallbacks == 0 {
		t.Fatal("fallback stat not counted")
	}
}

// TestPartitionConservation: every page taken from the cursor is
// either handed to the task or stashed on its own bank's list, once,
// and the counters account for both.
func TestPartitionConservation(t *testing.T) {
	alloc, mapper := partitionRig(t)
	mask := BankMask(0).Set(3)
	last := -1
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		pfn, _, ok := alloc.AllocPageFor(mask, &last)
		if !ok {
			t.Fatal("alloc failed")
		}
		if seen[pfn] {
			t.Fatalf("pfn %d handed out twice", pfn)
		}
		seen[pfn] = true
	}
	var stashed uint64
	for g, l := range alloc.perBank {
		for _, pfn := range l {
			if seen[uint64(pfn)] {
				t.Fatalf("pfn %d both handed out and stashed", pfn)
			}
			if b := mapper.PageGlobalBank(uint64(pfn)); b != g {
				t.Fatalf("pfn %d of bank %d stashed on bank %d", pfn, b, g)
			}
			seen[uint64(pfn)] = true
		}
		stashed += uint64(len(l))
	}
	if got := alloc.Buddy().allocated; got != 100+stashed {
		t.Fatalf("conservation: cursor handed out %d, want 100 live + %d stashed", got, stashed)
	}
	st := alloc.Stats
	if st.BuddyHits+st.CacheHits != 100 || st.Stashed-st.CacheHits != stashed || st.Fallbacks != 0 {
		t.Fatalf("stats %+v disagree with 100 live and %d stashed pages", st, stashed)
	}
}

func TestPartitionEmptyMaskMeansAllBanks(t *testing.T) {
	alloc, mapper := partitionRig(t)
	last := -1
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		pfn, fellBack, ok := alloc.AllocPageFor(0, &last)
		if !ok || fellBack {
			t.Fatal("baseline alloc failed")
		}
		seen[mapper.PageGlobalBank(pfn)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("baseline spread over %d banks, want 16", len(seen))
	}
}

func TestPartitionCacheHitPath(t *testing.T) {
	alloc, _ := partitionRig(t)
	// Allocating on bank 3 stashes pages for other banks; a later
	// request for bank 0 must be served from the stash.
	last := -1
	alloc.AllocPageFor(BankMask(0).Set(3), &last)
	stashed := len(alloc.perBank[0])
	if stashed == 0 {
		t.Fatal("no page stashed for bank 0")
	}
	before, taken := alloc.Stats.CacheHits, alloc.Buddy().allocated
	last2 := -1
	alloc.AllocPageFor(BankMask(0).Set(0), &last2)
	if alloc.Stats.CacheHits != before+1 || len(alloc.perBank[0]) != stashed-1 {
		t.Fatal("cache hit path not taken")
	}
	if alloc.Buddy().allocated != taken {
		t.Fatal("a cache hit took a page from the cursor")
	}
}
