package buddy

// State is the serializable state of the page allocator: the number of
// pages it has handed out. The frame order is fixed, so the count
// alone restores it, whatever the memory size.
type State struct {
	Allocated uint64
}

// State captures the allocator for checkpointing.
func (a *Allocator) State() State { return State{Allocated: a.allocated} }

// SetState restores a captured state. The allocator must have been built
// with the same page count.
func (a *Allocator) SetState(st State) {
	if st.Allocated > a.totalPages {
		panic("buddy: restoring more pages than memory holds")
	}
	a.allocated = st.Allocated
}

// PartitionState is the serializable state of the partition allocator:
// the per-bank stash lists in LIFO order plus counters. The underlying
// page allocator snapshots separately via Allocator.State.
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
