package buddy

// This file keeps the allocation half of the binary buddy allocator the
// cursor replaced: per-order free lists linked through arrays over every
// page frame, seeded eagerly with the largest aligned blocks in
// ascending pfn order, and split on allocation. It is the reference
// TestLazyMatchesDense holds the cursor to, frame for frame.

// maxOrder is the largest block order, 2^maxOrder = blockPages.
const maxOrder = 10

const denseNil = int32(-1)

// denseAllocator is a buddy allocator over page frames [0, totalPages)
// that never frees. Frames beyond the largest multiple of 2^maxOrder
// are seeded as smaller blocks, so arbitrary totals are supported.
type denseAllocator struct {
	// Intrusive doubly-linked free lists, one per order; next/prev are
	// indexed by pfn and only meaningful for free block heads.
	next  []int32
	prev  []int32
	heads [maxOrder + 1]int32
}

// newDense builds an allocator with every frame free.
func newDense(totalPages uint64) *denseAllocator {
	a := &denseAllocator{
		next: make([]int32, totalPages),
		prev: make([]int32, totalPages),
	}
	for i := range a.heads {
		a.heads[i] = denseNil
	}
	// Seed free lists greedily with the largest aligned blocks.
	var pfn uint64
	for pfn < totalPages {
		o := maxOrder
		for o > 0 && (pfn&(1<<uint(o)-1) != 0 || pfn+1<<uint(o) > totalPages) {
			o--
		}
		a.pushFree(pfn, o)
		pfn += 1 << uint(o)
	}
	return a
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

// AllocPage allocates a single frame, splitting the smallest free block
// and returning the upper halves to the free lists, or ok=false when no
// block is free.
func (a *denseAllocator) AllocPage() (uint64, bool) {
	o := 0
	for o <= maxOrder && a.heads[o] == denseNil {
		o++
	}
	if o > maxOrder {
		return 0, false
	}
	pfn := uint64(a.heads[o])
	a.unlinkFree(pfn, o)
	for o > 0 {
		o--
		a.pushFree(pfn+1<<uint(o), o)
	}
	return pfn, true
}
