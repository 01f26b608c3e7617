// Package buddy hands out the simulated machine's page frames in the
// order of a Linux-style binary buddy allocator, and layers the
// paper's bank-aware partitioning allocator (Algorithm 2) on top.
//
// Every allocation in a run is one page and no simulated task exits,
// so no frame is ever freed. A buddy allocator seeded with its 4 MB
// max-order blocks in ascending frame order then hands out one fixed
// sequence: it splits the top block and serves its frames lowest
// first, then the block below, down to frame 0. Allocator is a cursor
// over that sequence: with nothing freed, it needs no free lists.
package buddy

import "fmt"

// blockPages is the frame count of one max-order block: 2^10 pages,
// Linux's MAX_ORDER-1 = 10, so 4 MB blocks of 4 KB pages.
const blockPages = 1 << 10

// Allocator hands out page frames [0, totalPages) one at a time in the
// buddy order: the n-th page is frame (blocks-1-n/1024)*1024 + n%1024,
// where blocks = totalPages/1024.
type Allocator struct {
	totalPages uint64
	allocated  uint64 // pages handed out so far
}

// New builds an allocator with every frame free. totalPages must be a
// positive whole number of max-order blocks (every Table 1 geometry is)
// and below 2^31, so a frame fits the partition layer's uint32 stash.
func New(totalPages uint64) (*Allocator, error) {
	if totalPages == 0 || totalPages%blockPages != 0 {
		return nil, fmt.Errorf("buddy: totalPages %d is not a positive multiple of %d", totalPages, blockPages)
	}
	if totalPages > 1<<31-1 {
		return nil, fmt.Errorf("buddy: totalPages %d exceeds index space", totalPages)
	}
	return &Allocator{totalPages: totalPages}, nil
}

// TotalPages returns the managed frame count.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// AllocPage hands out the next frame, or ok=false once every frame is
// out.
func (a *Allocator) AllocPage() (uint64, bool) {
	n := a.allocated
	if n == a.totalPages {
		return 0, false
	}
	a.allocated++
	return a.totalPages - blockPages - n&^(blockPages-1) + n&(blockPages-1), true
}
