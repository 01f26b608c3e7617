package buddy

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"runtime"
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
)

// TestLazyMatchesDense drains the cursor, which derives each frame
// from its count when asked, and the dense buddy reference side by
// side to exhaustion at several whole-block totals and requires the
// same frame on every call, with the cursor's State sent through gob,
// as a snapshot file does, into a fresh allocator halfway.
func TestLazyMatchesDense(t *testing.T) {
	for _, total := range []uint64{1024, 2048, 3 * 1024, 9 * 1024, 64 * 1024} {
		cur, err := New(total)
		if err != nil {
			t.Fatal(err)
		}
		dense := newDense(total)
		for n := uint64(0); ; n++ {
			if n == total/2 {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(cur.State()); err != nil {
					t.Fatal(err)
				}
				var st State
				if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
					t.Fatal(err)
				}
				cur, _ = New(total)
				cur.SetState(st)
			}
			got, gok := cur.AllocPage()
			want, wok := dense.AllocPage()
			if got != want || gok != wok {
				t.Fatalf("total %d page %d: cursor %d,%v, dense %d,%v", total, n, got, gok, want, wok)
			}
			if !gok {
				if n != total {
					t.Fatalf("total %d: exhausted after %d pages", total, n)
				}
				break
			}
		}
	}
}

// TestNewSeedsAllFree: New accepts a positive whole number of blocks
// below 2^31 and starts with every frame free, so a fresh allocator
// hands out each frame of [0, total) once and then none. It refuses
// a total that is not a positive whole number of blocks or does not
// fit 31 bits.
func TestNewSeedsAllFree(t *testing.T) {
	for _, total := range []uint64{1024, 3 * 1024, 64 * 1024} {
		a, err := New(total)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalPages() != total || a.State().Allocated != 0 {
			t.Fatalf("New(%d): %d pages, %d handed out", total, a.TotalPages(), a.State().Allocated)
		}
		seen := make([]bool, total)
		for n := uint64(0); n < total; n++ {
			pfn, ok := a.AllocPage()
			if !ok || pfn >= total || seen[pfn] {
				t.Fatalf("total %d page %d: %d,%v out of range, repeated or refused", total, n, pfn, ok)
			}
			seen[pfn] = true
		}
		if _, ok := a.AllocPage(); ok {
			t.Fatalf("total %d: alloc succeeded with every frame out", total)
		}
	}
	if _, err := New(1<<31 - blockPages); err != nil {
		t.Errorf("New(2^31-%d): %v", blockPages, err)
	}
	for _, total := range []uint64{0, 1000, 1025, 1 << 31} {
		if _, err := New(total); err == nil {
			t.Errorf("New(%d) accepted", total)
		}
	}
}

// TestNewIsCheap: construction builds no per-frame metadata, so a
// 32 GB (8M-frame) allocator costs two words.
func TestNewIsCheap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := New(8 << 20)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New(8<<20) allocated %d bytes, want < 1 MB", got)
	}
	if pfn, ok := a.AllocPage(); !ok || pfn != 8<<20-1024 {
		t.Fatalf("first page = %d,%v, want the bottom of the top block", pfn, ok)
	}
}

// allocPageForModN is Algorithm 2's bank walk as a plain `% n` loop
// from *last+1, the reference for AllocPageFor's mask rotation.
func allocPageForModN(p *PartitionAllocator, mask BankMask, last *int) (pfn uint64, fellBack, ok bool) {
	n := len(p.perBank)
	if mask == 0 {
		mask = AllBanks(n)
	}
	allocBank := *last
	for i := 0; i < n; i++ {
		allocBank = (allocBank + 1) % n
		if !mask.Has(allocBank) {
			continue
		}
		if pfn, ok := p.popBank(allocBank); ok {
			p.Stats.CacheHits++
			*last = allocBank
			return pfn, false, true
		}
		if pfn, ok := p.fillBank(allocBank); ok {
			*last = allocBank
			return pfn, false, true
		}
	}
	for g := 0; g < n; g++ {
		if pfn, ok := p.popBank(g); ok {
			p.Stats.Fallbacks++
			return pfn, true, true
		}
	}
	if pfn, ok := p.buddy.AllocPage(); ok {
		p.Stats.Fallbacks++
		return pfn, true, true
	}
	p.Stats.Failures++
	return 0, false, false
}

// TestAllocPageForMatchesModN runs AllocPageFor and the `% n` loop side
// by side on identical allocators until memory runs out, over random
// masks (one bank, a few, all, empty) and start points from -1 to n-1,
// at 16 and 64 banks per channel.
func TestAllocPageForMatchesModN(t *testing.T) {
	for _, geo := range []struct{ dimms, banks int }{{1, 8}, {2, 16}} {
		cfg := config.Default(config.Density8Gb, 1)
		cfg.Mem.DIMMsPerChannel = geo.dimms
		cfg.Mem.RanksPerDIMM = 2
		cfg.Mem.BanksPerRank = geo.banks
		mapper, err := dram.NewMapper(cfg.Mem)
		if err != nil {
			t.Fatal(err)
		}
		n := mapper.Ranks() * mapper.BanksPerRank()
		rig := func() *PartitionAllocator {
			b, err := New(uint64(n) * 256)
			if err != nil {
				t.Fatal(err)
			}
			return NewPartitionAllocator(b, mapper)
		}
		got, want := rig(), rig()
		rng := rand.New(rand.NewSource(int64(n)))
		for call := 0; ; call++ {
			var mask BankMask
			switch rng.Intn(4) {
			case 0:
				mask = BankMask(0).Set(rng.Intn(n))
			case 1:
				mask = BankMask(rng.Uint64()) & AllBanks(n)
			case 2:
				mask = AllBanks(n)
			}
			last := rng.Intn(n+1) - 1
			gl, wl := last, last
			gp, gf, gok := got.AllocPageFor(mask, &gl)
			wp, wf, wok := allocPageForModN(want, mask, &wl)
			if gp != wp || gf != wf || gok != wok || gl != wl {
				t.Fatalf("n=%d call %d mask %x last %d: got %d,%v,%v last %d; want %d,%v,%v last %d",
					n, call, mask, last, gp, gf, gok, gl, wp, wf, wok, wl)
			}
			if got.Stats != want.Stats {
				t.Fatalf("n=%d call %d: stats %+v, want %+v", n, call, got.Stats, want.Stats)
			}
			if !gok {
				break
			}
		}
	}
}
