package buddy

import (
	"math/bits"

	"refsched/internal/dram"
)

// BankMask is a bitmask over the global bank indices of a channel
// (rank*banksPerRank + bank) — the paper's possible_banks_vector.
type BankMask uint64

// Has reports whether global bank g is in the mask.
func (m BankMask) Has(g int) bool { return m&(1<<uint(g)) != 0 }

// Set returns the mask with global bank g added.
func (m BankMask) Set(g int) BankMask { return m | 1<<uint(g) }

// Count returns the number of allowed banks.
func (m BankMask) Count() int { return bits.OnesCount64(uint64(m)) }

// AllBanks returns a mask allowing every bank of a channel.
func AllBanks(banksPerChannel int) BankMask {
	return BankMask(1)<<uint(banksPerChannel) - 1
}

// PartitionStats counts partition-allocator behaviour.
type PartitionStats struct {
	// CacheHits served straight from a per-bank free list (line 15 of
	// Algorithm 2).
	CacheHits uint64 `json:"cache_hits"`
	// BuddyHits taken from the buddy allocator and matching the
	// round-robin target bank (line 27).
	BuddyHits uint64 `json:"buddy_hits"`
	// Stashed pages diverted into per-bank free lists (line 33).
	Stashed uint64 `json:"stashed"`
	// Fallbacks allocated outside the task's possible-banks vector
	// because its banks were exhausted (Section 5.4.1 fall-back).
	Fallbacks uint64 `json:"fallbacks"`
	// Failures with no memory anywhere.
	Failures uint64 `json:"failures"`
}

// PartitionAllocator implements the paper's Algorithm 2: a bank-aware
// page allocator layered on the buddy allocator. It keeps a cache of
// per-bank free lists holding the pages it drew for other banks, so a
// later request for such a bank is served without drawing again from
// the buddy allocator, and it rotates consecutive
// allocations for a task across the task's allowed banks (round-robin on
// lastAllocedBank) to preserve bank-level parallelism.
//
// With a full mask it behaves like the baseline bank-oblivious
// allocator; with per-task masks it realizes soft or hard partitioning
// depending on whether masks overlap.
type PartitionAllocator struct {
	buddy  *Allocator
	mapper *dram.Mapper
	// perBank free-list cache, indexed by global bank within a
	// channel; pages from all channels share the bank index, matching
	// the paper's single-channel formulation while staying correct for
	// multi-channel systems (bank slots align across channels). Frames
	// fit in 32 bits because New caps the frame count below 2^31.
	perBank [][]uint32

	Stats PartitionStats
}

// stashBudget bounds how many mismatched pages one allocation may
// divert into the cache before giving up on a target bank.
const stashBudget = 256

// NewPartitionAllocator wraps a buddy allocator with Algorithm 2. The
// mapper's channels may hold at most 64 banks, the width of a BankMask.
func NewPartitionAllocator(b *Allocator, mapper *dram.Mapper) *PartitionAllocator {
	n := mapper.Ranks() * mapper.BanksPerRank()
	if n > 64 {
		panic("buddy: a BankMask covers at most 64 banks per channel")
	}
	return &PartitionAllocator{
		buddy:   b,
		mapper:  mapper,
		perBank: make([][]uint32, n),
	}
}

// TotalPages returns the frame count of the underlying page allocator.
func (p *PartitionAllocator) TotalPages() uint64 { return p.buddy.TotalPages() }

// Buddy exposes the underlying page allocator.
func (p *PartitionAllocator) Buddy() *Allocator { return p.buddy }

// popBank serves a page from the per-bank cache.
func (p *PartitionAllocator) popBank(g int) (uint64, bool) {
	l := p.perBank[g]
	if len(l) == 0 {
		return 0, false
	}
	pfn := l[len(l)-1]
	p.perBank[g] = l[:len(l)-1]
	return uint64(pfn), true
}

// fillBank pops pages from the buddy allocator, stashing mismatches into
// their banks' caches, until a page on target bank g emerges or the
// stash budget / memory is exhausted.
func (p *PartitionAllocator) fillBank(g int) (uint64, bool) {
	for i := 0; i < stashBudget; i++ {
		pfn, ok := p.buddy.AllocPage()
		if !ok {
			return 0, false
		}
		bank := p.mapper.PageGlobalBank(pfn)
		if bank == g {
			p.Stats.BuddyHits++
			return pfn, true
		}
		p.Stats.Stashed++
		p.perBank[bank] = append(p.perBank[bank], uint32(pfn))
	}
	return 0, false
}

// AllocPageFor allocates one page for a task whose possible-banks vector
// is mask, rotating from *last (the task's lastAllocedBank: -1 or a bank
// index, updated on success). fellBack reports a page outside the mask
// (allowed-bank exhaustion fall-back).
func (p *PartitionAllocator) AllocPageFor(mask BankMask, last *int) (pfn uint64, fellBack, ok bool) {
	n := len(p.perBank)
	all := AllBanks(n)
	if mask == 0 {
		mask = all
	}
	// Visit the allowed banks round-robin from *last+1: rotate the mask
	// so bit k stands for bank (start+k) mod n, then walk its set bits.
	start := (*last + 1) % n
	m := mask & all
	rot := m>>uint(start) | (m<<uint(n-start))&all
	for rot != 0 {
		allocBank := start + bits.TrailingZeros64(uint64(rot))
		rot &= rot - 1
		if allocBank >= n {
			allocBank -= n
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
	// Fall back: any cached page, then any buddy page (Section 5.4.1).
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
