// Package buddy implements a Linux-style binary buddy page-frame
// allocator: per-order free lists with block splitting on allocation and
// buddy coalescing on free. It is the substrate Algorithm 2 (the paper's
// bank-aware partitioning allocator) is built on.
package buddy

import "fmt"

// MaxOrder is the largest block order (2^MaxOrder pages), matching
// Linux's MAX_ORDER-1 = 10 → 4 MB blocks with 4 KB pages.
const MaxOrder = 10

// chunkPages is the frame count of one max-order block, the unit in
// which the allocator builds per-frame metadata.
const chunkPages = 1 << MaxOrder

// Page states. The zero value is stateTail, so a freshly allocated
// chunk already reads as "every frame is interior to some block" and
// needs no initialisation pass.
const (
	stateTail  uint8 = iota // interior page of some block
	stateFree               // head of a free block on a free list
	stateAlloc              // head of an allocated block
)

const nilIdx = int32(-1)

// chunk is the per-frame metadata of one max-order block. next/prev are
// the intrusive free-list links (global pfns) and are only meaningful
// for free block heads.
type chunk struct {
	order [chunkPages]uint8
	state [chunkPages]uint8
	next  [chunkPages]int32
	prev  [chunkPages]int32
}

// Allocator is a buddy allocator over page frames [0, totalPages).
// Frames beyond the largest multiple of 2^MaxOrder are seeded as smaller
// blocks, so arbitrary totals are supported.
//
// Metadata is built lazily, one max-order block (chunk) at a time: a
// block that has never left the max-order free list is represented only
// by the pristine count, so construction costs O(totalPages/2^MaxOrder)
// however large memory is. Allocation order is exactly that of seeding
// every block eagerly in ascending pfn order: the never-taken blocks
// [0, pristine) form the bottom of the max-order free list in descending
// pfn order, below every explicitly linked block that coalesced back to
// max order. Coalescing only unlinks buddies below max order, so the
// max-order list is a stack and a count reproduces its tail exactly.
type Allocator struct {
	totalPages uint64
	nrFree     uint64

	// chunks[c] holds the metadata of frames [c<<MaxOrder, (c+1)<<MaxOrder),
	// nil until block c is first taken off the max-order free list.
	chunks []*chunk
	// pristine counts the never-taken max-order blocks [0, pristine).
	pristine uint64
	// Free-list heads, one per order; heads[MaxOrder] lists only the
	// explicitly linked max-order blocks above the pristine ones.
	heads [MaxOrder + 1]int32

	// Allocs and Frees count operations (for invariant tests).
	Allocs uint64
	Frees  uint64
}

// New builds an allocator with every frame free.
func New(totalPages uint64) (*Allocator, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("buddy: totalPages must be positive")
	}
	if totalPages > 1<<31-1 {
		return nil, fmt.Errorf("buddy: totalPages %d exceeds index space", totalPages)
	}
	full := totalPages >> MaxOrder
	a := &Allocator{
		totalPages: totalPages,
		chunks:     make([]*chunk, (totalPages+chunkPages-1)>>MaxOrder),
		pristine:   full,
		nrFree:     full << MaxOrder,
	}
	for i := range a.heads {
		a.heads[i] = nilIdx
	}
	// Seed the tail short of a whole max-order block greedily with the
	// largest aligned blocks that fit.
	pfn := full << MaxOrder
	if pfn < totalPages {
		a.chunks[full] = new(chunk)
	}
	for pfn < totalPages {
		o := MaxOrder - 1
		for o > 0 && (pfn&(1<<uint(o)-1) != 0 || pfn+1<<uint(o) > totalPages) {
			o--
		}
		a.seedFree(pfn, o)
		pfn += 1 << uint(o)
	}
	return a, nil
}

// TotalPages returns the managed frame count.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// NrFree returns the number of free page frames.
func (a *Allocator) NrFree() uint64 { return a.nrFree }

// meta returns the chunk holding pfn (nil if never built) and pfn's
// index within it.
func (a *Allocator) meta(pfn uint64) (*chunk, uint64) {
	return a.chunks[pfn>>MaxOrder], pfn & (chunkPages - 1)
}

func (a *Allocator) seedFree(pfn uint64, order int) {
	c, i := a.meta(pfn)
	c.state[i] = stateFree
	c.order[i] = uint8(order)
	a.pushFree(pfn, order)
	a.nrFree += 1 << uint(order)
}

func (a *Allocator) pushFree(pfn uint64, order int) {
	c, i := a.meta(pfn)
	h := a.heads[order]
	c.next[i] = h
	c.prev[i] = nilIdx
	if h != nilIdx {
		hc, hi := a.meta(uint64(h))
		hc.prev[hi] = int32(pfn)
	}
	a.heads[order] = int32(pfn)
}

func (a *Allocator) unlinkFree(pfn uint64, order int) {
	c, i := a.meta(pfn)
	n, p := c.next[i], c.prev[i]
	if p != nilIdx {
		pc, pi := a.meta(uint64(p))
		pc.next[pi] = n
	} else {
		a.heads[order] = n
	}
	if n != nilIdx {
		nc, ni := a.meta(uint64(n))
		nc.prev[ni] = p
	}
}

// AllocBlock allocates a 2^order-page block, splitting larger blocks as
// needed. It returns the head pfn, or ok=false when no block is
// available.
func (a *Allocator) AllocBlock(order int) (uint64, bool) {
	if order < 0 || order > MaxOrder {
		return 0, false
	}
	o := order
	for o < MaxOrder && a.heads[o] == nilIdx {
		o++
	}
	var pfn uint64
	switch {
	case a.heads[o] != nilIdx:
		pfn = uint64(a.heads[o])
		a.unlinkFree(pfn, o)
	case o == MaxOrder && a.pristine > 0:
		// The top of the pristine stack: build its metadata now.
		a.pristine--
		pfn = a.pristine << MaxOrder
		a.chunks[a.pristine] = new(chunk)
	default:
		return 0, false
	}
	c, i := a.meta(pfn)
	// Split down, returning upper halves to the free lists.
	for o > order {
		o--
		buddy := i + 1<<uint(o)
		c.state[buddy] = stateFree
		c.order[buddy] = uint8(o)
		a.pushFree(pfn+1<<uint(o), o)
	}
	c.state[i] = stateAlloc
	c.order[i] = uint8(order)
	a.nrFree -= 1 << uint(order)
	a.Allocs++
	return pfn, true
}

// AllocPage allocates a single frame.
func (a *Allocator) AllocPage() (uint64, bool) { return a.AllocBlock(0) }

// InvalidFreeError is the sim.Fault raised by a free of a frame that is
// not the head of an allocated block of the given order — a double
// free, an unaligned free, or a free of never-allocated memory. It
// unwinds out of the event loop and is converted into a returned error
// at the core run boundary.
type InvalidFreeError struct {
	PFN        uint64
	Order      int
	TotalPages uint64
}

// Error implements error.
func (e *InvalidFreeError) Error() string {
	return fmt.Sprintf("buddy: invalid free of pfn %d order %d (%d pages managed)",
		e.PFN, e.Order, e.TotalPages)
}

// SimulationFault implements sim.Fault.
func (*InvalidFreeError) SimulationFault() {}

// FreeBlock frees a block previously returned by AllocBlock with the
// same order, coalescing with free buddies.
func (a *Allocator) FreeBlock(pfn uint64, order int) {
	var c *chunk
	var i uint64
	if pfn < a.totalPages {
		c, i = a.meta(pfn)
	}
	if c == nil || c.state[i] != stateAlloc || int(c.order[i]) != order {
		panic(&InvalidFreeError{PFN: pfn, Order: order, TotalPages: a.totalPages})
	}
	a.Frees++
	a.nrFree += 1 << uint(order)
	// Below max order a buddy lies in the same chunk. Frames of the
	// last chunk past totalPages are never written, so they stay
	// stateTail and never coalesce.
	base := pfn - i
	for order < MaxOrder {
		buddy := i ^ 1<<uint(order)
		if c.state[buddy] != stateFree || int(c.order[buddy]) != order {
			break
		}
		a.unlinkFree(base+buddy, order)
		c.state[buddy] = stateTail
		if buddy < i {
			c.state[i] = stateTail
			i = buddy
		}
		order++
	}
	c.state[i] = stateFree
	c.order[i] = uint8(order)
	a.pushFree(base+i, order)
}

// FreePage frees a single frame.
func (a *Allocator) FreePage(pfn uint64) { a.FreeBlock(pfn, 0) }

// CheckInvariants validates allocator metadata: free-list membership
// matches page state, block accounting matches nrFree, no blocks
// overlap, and exactly the pristine blocks lack metadata. Exported for
// property tests; O(built frames + totalPages/2^MaxOrder).
func (a *Allocator) CheckInvariants() error {
	var freeFromLists uint64
	seen := make(map[uint64]bool)
	for o := 0; o <= MaxOrder; o++ {
		for i := a.heads[o]; i != nilIdx; {
			pfn := uint64(i)
			if pfn >= a.totalPages {
				return fmt.Errorf("buddy: list %d links pfn %d past the end", o, pfn)
			}
			c, j := a.meta(pfn)
			if c == nil {
				return fmt.Errorf("buddy: list %d links pfn %d of a block with no metadata", o, pfn)
			}
			if c.state[j] != stateFree || int(c.order[j]) != o {
				return fmt.Errorf("buddy: list %d contains pfn %d with state %d order %d", o, pfn, c.state[j], c.order[j])
			}
			if seen[pfn] {
				return fmt.Errorf("buddy: pfn %d on two lists", pfn)
			}
			seen[pfn] = true
			freeFromLists += 1 << uint(o)
			i = c.next[j]
		}
	}
	freeFromLists += a.pristine << MaxOrder
	if freeFromLists != a.nrFree {
		return fmt.Errorf("buddy: nrFree %d but lists hold %d", a.nrFree, freeFromLists)
	}
	// Walk coverage: every frame belongs to exactly one block.
	for ci, c := range a.chunks {
		base := uint64(ci) << MaxOrder
		if pristine := uint64(ci) < a.pristine; pristine != (c == nil) {
			return fmt.Errorf("buddy: block at pfn %d: pristine %v but metadata built %v", base, pristine, c != nil)
		}
		if c == nil {
			continue
		}
		end := min(base+chunkPages, a.totalPages)
		for pfn := base; pfn < end; {
			j := pfn - base
			st := c.state[j]
			if st == stateTail {
				return fmt.Errorf("buddy: pfn %d is a tail with no head", pfn)
			}
			size := uint64(1) << uint(c.order[j])
			if c.order[j] > MaxOrder || pfn&(size-1) != 0 {
				return fmt.Errorf("buddy: pfn %d heads a misaligned order-%d block", pfn, c.order[j])
			}
			if st == stateFree && !seen[pfn] {
				return fmt.Errorf("buddy: free head pfn %d missing from lists", pfn)
			}
			for t := pfn + 1; t < pfn+size && t < end; t++ {
				if c.state[t-base] != stateTail {
					return fmt.Errorf("buddy: pfn %d inside block at %d has state %d", t, pfn, c.state[t-base])
				}
			}
			pfn += size
		}
	}
	return nil
}
