package vm

// State is the serializable state of an address space. The page table
// is stored as a vpn->pfn map of the resident pages: lookup behaviour
// depends only on membership, so the round trip is exact.
type State struct {
	Pages        map[uint64]uint64
	PerBankPages []uint64
	Faults       uint64
}

// State captures the address space for checkpointing.
func (as *AddressSpace) State() State {
	pages := make(map[uint64]uint64, as.faults)
	for vpn, f := range as.frames {
		if f != 0 {
			pages[uint64(vpn)] = uint64(f - 1)
		}
	}
	per := make([]uint64, len(as.perBankPages))
	copy(per, as.perBankPages)
	return State{Pages: pages, PerBankPages: per, Faults: as.faults}
}

// SetState restores a captured state. The address space must have been
// built with the same page size and mapper geometry.
func (as *AddressSpace) SetState(st State) {
	var n uint64
	for vpn := range st.Pages {
		n = max(n, vpn+1)
	}
	as.frames = make([]uint32, n)
	for vpn, pfn := range st.Pages {
		as.frames[vpn] = uint32(pfn + 1)
	}
	copy(as.perBankPages, st.PerBankPages)
	as.faults = st.Faults
}
