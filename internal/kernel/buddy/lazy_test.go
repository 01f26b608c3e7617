package buddy

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
)

// TestLazyMatchesDense drives the lazy allocator and the dense
// reference with the same random AllocBlock/FreeBlock sequence and
// requires identical answers on every call, equal free counts, clean
// invariants, and a State/SetState copy that drains to the same pages.
func TestLazyMatchesDense(t *testing.T) {
	for _, total := range []uint64{1, 7, 1000, 1024, 1025, 3000, 9 * 1024} {
		for seed := int64(1); seed <= 6; seed++ {
			lazy, err := New(total)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := newDense(total)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			type block struct {
				pfn   uint64
				order int
			}
			var live []block
			for step := 0; step < 4000; step++ {
				// Allocation-heavy early, free-heavy late, so runs both
				// exhaust memory and coalesce back to max-order blocks.
				allocP := 0.65
				if step >= 2000 {
					allocP = 0.3
				}
				if len(live) == 0 || rng.Float64() < allocP {
					o := rng.Intn(4)
					if rng.Intn(8) == 0 {
						o = rng.Intn(MaxOrder + 1)
					}
					lp, lok := lazy.AllocBlock(o)
					dp, dok := dense.AllocBlock(o)
					if lp != dp || lok != dok {
						t.Fatalf("total %d seed %d step %d: AllocBlock(%d) = %d,%v, dense %d,%v",
							total, seed, step, o, lp, lok, dp, dok)
					}
					if lok {
						live = append(live, block{lp, o})
					}
				} else {
					k := rng.Intn(len(live))
					b := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					lazy.FreeBlock(b.pfn, b.order)
					dense.FreeBlock(b.pfn, b.order)
				}
				if lazy.NrFree() != dense.NrFree() {
					t.Fatalf("total %d seed %d step %d: NrFree %d, dense %d",
						total, seed, step, lazy.NrFree(), dense.NrFree())
				}
				if step%500 == 0 {
					if err := lazy.CheckInvariants(); err != nil {
						t.Fatalf("total %d seed %d step %d: %v", total, seed, step, err)
					}
				}
			}
			if err := lazy.CheckInvariants(); err != nil {
				t.Fatalf("total %d seed %d: %v", total, seed, err)
			}

			// The copy goes through gob, as a snapshot file does.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(lazy.State()); err != nil {
				t.Fatal(err)
			}
			var st State
			if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
				t.Fatal(err)
			}
			cp, _ := New(total)
			cp.SetState(st)
			if err := cp.CheckInvariants(); err != nil {
				t.Fatalf("total %d seed %d: restored copy: %v", total, seed, err)
			}
			for {
				cpfn, cok := cp.AllocPage()
				dpfn, dok := dense.AllocPage()
				if cpfn != dpfn || cok != dok {
					t.Fatalf("total %d seed %d: restored copy drains %d,%v, dense %d,%v",
						total, seed, cpfn, cok, dpfn, dok)
				}
				if !cok {
					break
				}
			}
		}
	}
}

// TestFreeOfPristineBlockPanics: a never-split block has no metadata,
// and freeing a frame in it is still an InvalidFreeError.
func TestFreeOfPristineBlockPanics(t *testing.T) {
	a, _ := New(4 * 1024)
	defer func() {
		var inv *InvalidFreeError
		if err, _ := recover().(error); !errors.As(err, &inv) {
			t.Fatalf("recovered %v, want *InvalidFreeError", err)
		}
	}()
	a.FreePage(5)
}

// TestNewIsCheap: construction builds no per-frame metadata, so a
// 32 GB (8M-frame) allocator costs one pointer per 4 MB block.
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
			b, err := New(uint64(n) * 300)
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
