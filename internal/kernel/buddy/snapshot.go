package buddy

// State is the serializable state of the buddy allocator: the pristine
// block count plus the metadata and free-list links of every built
// chunk verbatim, so the restored allocator serves the exact same
// frames in the exact same order. Pristine blocks carry no metadata, so
// a snapshot grows with the memory a cell touched, not with its size.
type State struct {
	TotalPages uint64
	NrFree     uint64
	Pristine   uint64
	Chunks     []ChunkState
	Heads      [MaxOrder + 1]int32
	Allocs     uint64
	Frees      uint64
}

// ChunkState is the metadata of one built max-order block, frames
// [Block<<MaxOrder, (Block+1)<<MaxOrder).
type ChunkState struct {
	Block     uint64
	Order     [chunkPages]uint8
	PageState [chunkPages]uint8
	Next      [chunkPages]int32
	Prev      [chunkPages]int32
}

// State captures the allocator for checkpointing. Chunks are listed in
// ascending block order.
func (a *Allocator) State() State {
	st := State{
		TotalPages: a.totalPages,
		NrFree:     a.nrFree,
		Pristine:   a.pristine,
		Heads:      a.heads,
		Allocs:     a.Allocs,
		Frees:      a.Frees,
	}
	for b, c := range a.chunks {
		if c != nil {
			st.Chunks = append(st.Chunks, ChunkState{
				Block: uint64(b), Order: c.order, PageState: c.state, Next: c.next, Prev: c.prev,
			})
		}
	}
	return st
}

// SetState restores a captured state. The allocator must have been built
// with the same page count.
func (a *Allocator) SetState(st State) {
	if st.TotalPages != a.totalPages {
		panic("buddy: restoring state of a different memory size")
	}
	clear(a.chunks)
	for _, cs := range st.Chunks {
		if cs.Block >= uint64(len(a.chunks)) {
			panic("buddy: restoring a block past the end of memory")
		}
		a.chunks[cs.Block] = &chunk{order: cs.Order, state: cs.PageState, next: cs.Next, prev: cs.Prev}
	}
	a.pristine = st.Pristine
	a.heads = st.Heads
	a.nrFree = st.NrFree
	a.Allocs = st.Allocs
	a.Frees = st.Frees
}

// PartitionState is the serializable state of the partition allocator:
// the per-bank stash lists in LIFO order plus counters. The underlying
// buddy allocator snapshots separately via Allocator.State.
type PartitionState struct {
	PerBank [][]uint32
	Stats   PartitionStats
}

// State captures the partition layer for checkpointing.
func (p *PartitionAllocator) State() PartitionState {
	per := make([][]uint32, len(p.perBank))
	for i, l := range p.perBank {
		per[i] = append([]uint32(nil), l...)
	}
	return PartitionState{PerBank: per, Stats: p.Stats}
}

// SetState restores a captured partition-layer state. The allocator must
// track the same bank count.
func (p *PartitionAllocator) SetState(st PartitionState) {
	if len(st.PerBank) != len(p.perBank) {
		panic("buddy: restoring partition state of a different geometry")
	}
	for i, l := range st.PerBank {
		p.perBank[i] = append([]uint32(nil), l...)
	}
	p.Stats = st.Stats
}
