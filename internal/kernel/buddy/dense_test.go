package buddy

import "fmt"

// This file keeps the dense allocator the lazy one replaced: four
// per-frame arrays over all of memory, seeded eagerly in ascending pfn
// order. It is the reference the differential tests hold the lazy
// allocator to, frame for frame. Only identifiers are renamed.

// Page states.
const (
	denseFree  uint8 = iota // head of a free block on a free list
	denseAlloc              // head of an allocated block
	denseTail               // interior page of some block
)

const denseNil = int32(-1)

// Allocator is a buddy allocator over page frames [0, totalPages).
// Frames beyond the largest power-of-two prefix are seeded as smaller
// blocks, so arbitrary totals are supported.
type denseAllocator struct {
	totalPages uint64
	nrFree     uint64

	order []uint8
	state []uint8
	// Intrusive doubly-linked free lists, one per order; next/prev are
	// indexed by pfn and only meaningful for free block heads.
	next  []int32
	prev  []int32
	heads [MaxOrder + 1]int32

	// Allocs and Frees count operations (for invariant tests).
	Allocs uint64
	Frees  uint64
}

// New builds an allocator with every frame free.
func newDense(totalPages uint64) (*denseAllocator, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("buddy: totalPages must be positive")
	}
	if totalPages > 1<<31-1 {
		return nil, fmt.Errorf("buddy: totalPages %d exceeds index space", totalPages)
	}
	a := &denseAllocator{
		totalPages: totalPages,
		order:      make([]uint8, totalPages),
		state:      make([]uint8, totalPages),
		next:       make([]int32, totalPages),
		prev:       make([]int32, totalPages),
	}
	for i := range a.heads {
		a.heads[i] = denseNil
	}
	for i := range a.state {
		a.state[i] = denseTail
	}
	// Seed free lists greedily with the largest aligned blocks.
	var pfn uint64
	for pfn < totalPages {
		o := MaxOrder
		for o > 0 && (pfn&(1<<uint(o)-1) != 0 || pfn+1<<uint(o) > totalPages) {
			o--
		}
		a.seedFree(pfn, o)
		pfn += 1 << uint(o)
	}
	return a, nil
}

// TotalPages returns the managed frame count.
func (a *denseAllocator) TotalPages() uint64 { return a.totalPages }

// NrFree returns the number of free page frames.
func (a *denseAllocator) NrFree() uint64 { return a.nrFree }

func (a *denseAllocator) seedFree(pfn uint64, order int) {
	a.state[pfn] = denseFree
	a.order[pfn] = uint8(order)
	a.pushFree(pfn, order)
	a.nrFree += 1 << uint(order)
}

func (a *denseAllocator) pushFree(pfn uint64, order int) {
	h := a.heads[order]
	a.next[pfn] = h
	a.prev[pfn] = denseNil
	if h != denseNil {
		a.prev[h] = int32(pfn)
	}
	a.heads[order] = int32(pfn)
}

func (a *denseAllocator) unlinkFree(pfn uint64, order int) {
	n, p := a.next[pfn], a.prev[pfn]
	if p != denseNil {
		a.next[p] = n
	} else {
		a.heads[order] = n
	}
	if n != denseNil {
		a.prev[n] = p
	}
}

// AllocBlock allocates a 2^order-page block, splitting larger blocks as
// needed. It returns the head pfn, or ok=false when no block is
// available.
func (a *denseAllocator) AllocBlock(order int) (uint64, bool) {
	if order < 0 || order > MaxOrder {
		return 0, false
	}
	o := order
	for o <= MaxOrder && a.heads[o] == denseNil {
		o++
	}
	if o > MaxOrder {
		return 0, false
	}
	pfn := uint64(a.heads[o])
	a.unlinkFree(pfn, o)
	// Split down, returning upper halves to the free lists.
	for o > order {
		o--
		buddy := pfn + 1<<uint(o)
		a.state[buddy] = denseFree
		a.order[buddy] = uint8(o)
		a.pushFree(buddy, o)
	}
	a.state[pfn] = denseAlloc
	a.order[pfn] = uint8(order)
	a.nrFree -= 1 << uint(order)
	a.Allocs++
	return pfn, true
}

// AllocPage allocates a single frame.
func (a *denseAllocator) AllocPage() (uint64, bool) { return a.AllocBlock(0) }

// FreeBlock frees a block previously returned by AllocBlock with the
// same order, coalescing with free buddies.
func (a *denseAllocator) FreeBlock(pfn uint64, order int) {
	if pfn >= a.totalPages || a.state[pfn] != denseAlloc || int(a.order[pfn]) != order {
		panic(&InvalidFreeError{PFN: pfn, Order: order, TotalPages: a.totalPages})
	}
	a.Frees++
	a.nrFree += 1 << uint(order)
	for order < MaxOrder {
		buddy := pfn ^ 1<<uint(order)
		if buddy >= a.totalPages || a.state[buddy] != denseFree || int(a.order[buddy]) != order {
			break
		}
		a.unlinkFree(buddy, order)
		a.state[buddy] = denseTail
		if buddy < pfn {
			a.state[pfn] = denseTail
			pfn = buddy
		}
		order++
	}
	a.state[pfn] = denseFree
	a.order[pfn] = uint8(order)
	a.pushFree(pfn, order)
}

// FreePage frees a single frame.
func (a *denseAllocator) FreePage(pfn uint64) { a.FreeBlock(pfn, 0) }

// CheckInvariants validates allocator metadata: free-list membership
// matches page state, block accounting matches nrFree, and no blocks
// overlap. Exported for property tests; O(totalPages).
func (a *denseAllocator) CheckInvariants() error {
	var freeFromLists uint64
	seen := make(map[uint64]bool)
	for o := 0; o <= MaxOrder; o++ {
		for i := a.heads[o]; i != denseNil; i = a.next[i] {
			pfn := uint64(i)
			if a.state[pfn] != denseFree || int(a.order[pfn]) != o {
				return fmt.Errorf("buddy: list %d contains pfn %d with state %d order %d", o, pfn, a.state[pfn], a.order[pfn])
			}
			if seen[pfn] {
				return fmt.Errorf("buddy: pfn %d on two lists", pfn)
			}
			seen[pfn] = true
			freeFromLists += 1 << uint(o)
		}
	}
	if freeFromLists != a.nrFree {
		return fmt.Errorf("buddy: nrFree %d but lists hold %d", a.nrFree, freeFromLists)
	}
	// Walk coverage: every frame belongs to exactly one block.
	var pfn uint64
	for pfn < a.totalPages {
		st := a.state[pfn]
		if st == denseTail {
			return fmt.Errorf("buddy: pfn %d is a tail with no head", pfn)
		}
		size := uint64(1) << uint(a.order[pfn])
		if st == denseFree && !seen[pfn] {
			return fmt.Errorf("buddy: free head pfn %d missing from lists", pfn)
		}
		for t := pfn + 1; t < pfn+size && t < a.totalPages; t++ {
			if a.state[t] != denseTail {
				return fmt.Errorf("buddy: pfn %d inside block at %d has state %d", t, pfn, a.state[t])
			}
		}
		pfn += size
	}
	return nil
}
