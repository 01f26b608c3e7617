// Package vm models per-task virtual memory: demand-paged page tables
// mapping virtual pages to physical frames, with per-bank occupancy
// accounting. Page size equals the DRAM row size (4 KB), so one virtual
// page maps to exactly one DRAM row — the granularity the co-design's
// bank partitioning operates at.
package vm

import (
	"fmt"
	"math/bits"

	"refsched/internal/dram"
)

// MaxPages bounds a page table's reach in virtual pages. The table is a
// slice indexed by virtual page number, so its size follows the highest
// address a task touches: 2^26 pages of 4 KB reach 256 GiB, which holds
// every workload heap and any trace replayed from a machine of up to
// that much memory, for a table of at most 256 MiB.
const MaxPages = 1 << 26

// AddressSpace is one task's page table.
type AddressSpace struct {
	pageShift uint
	// frames[vpn] holds pfn+1 for a resident page and 0 otherwise; it
	// grows on fault. Frames are 32-bit, which core.Build checks
	// against the machine's physical capacity.
	frames []uint32
	mapper *dram.Mapper

	// perBankPages counts resident pages per global bank — what the
	// best-effort refresh-aware scheduler consults for high-footprint
	// tasks (Section 5.4.1).
	perBankPages []uint64
	// faults counts Map calls, which is also the number of resident
	// pages: pages are never unmapped.
	faults uint64
}

// NewAddressSpace builds an empty address space.
func NewAddressSpace(pageBytes uint64, mapper *dram.Mapper) *AddressSpace {
	return &AddressSpace{
		pageShift:    uint(bits.TrailingZeros64(pageBytes)),
		mapper:       mapper,
		perBankPages: make([]uint64, mapper.Ranks()*mapper.BanksPerRank()),
	}
}

// Lookup translates vaddr; ok=false means the page is not resident
// (a fault is needed).
func (as *AddressSpace) Lookup(vaddr uint64) (paddr uint64, ok bool) {
	vpn := vaddr >> as.pageShift
	if vpn >= uint64(len(as.frames)) || as.frames[vpn] == 0 {
		return 0, false
	}
	pfn := uint64(as.frames[vpn] - 1)
	return pfn<<as.pageShift | vaddr&(1<<as.pageShift-1), true
}

// RangeError is the sim.Fault Map raises for a virtual address beyond
// MaxPages: it fails the run that touched the address.
type RangeError struct {
	VAddr uint64
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("vm: virtual address %#x is beyond the page table's reach of %d pages", e.VAddr, MaxPages)
}

// SimulationFault implements sim.Fault.
func (*RangeError) SimulationFault() {}

// Map installs vpn -> pfn for a page that is not resident and accounts
// the page's bank.
func (as *AddressSpace) Map(vaddr, pfn uint64) uint64 {
	vpn := vaddr >> as.pageShift
	if vpn >= MaxPages {
		panic(&RangeError{VAddr: vaddr})
	}
	if vpn >= uint64(len(as.frames)) {
		as.frames = append(as.frames, make([]uint32, vpn+1-uint64(len(as.frames)))...)
	}
	as.frames[vpn] = uint32(pfn + 1)
	as.perBankPages[as.mapper.PageGlobalBank(pfn)]++
	as.faults++
	return pfn<<as.pageShift | vaddr&(1<<as.pageShift-1)
}

// Faults returns the demand-fault count, which is also the number of
// resident pages.
func (as *AddressSpace) Faults() uint64 { return as.faults }

// BankOccupancy returns the fraction of this task's pages on bank g.
func (as *AddressSpace) BankOccupancy(g int) float64 {
	if as.faults == 0 {
		return 0
	}
	return float64(as.perBankPages[g]) / float64(as.faults)
}
