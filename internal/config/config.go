// Package config defines the simulated system configuration: CPU core
// parameters, cache geometry, DRAM geometry and timing (Table 1 of the
// paper), refresh policy selection, and OS policy selection.
//
// All durations are stored in CPU cycles at the configured core frequency
// (3.2 GHz by default, so 1 ns = 3.2 cycles).
//
// The Scale knob divides the two millisecond-scale constants — the DRAM
// retention window tREFW and the OS time slice — by the given factor while
// leaving the µs/ns-scale DRAM timing parameters untouched. The refresh
// duty cycle (tRFC/tREFI) and the "time slice == tREFW / total banks"
// alignment that the co-design exploits are both invariant under Scale, so
// experiment *shape* is preserved while runs stay laptop-sized. Scale=1
// reproduces the paper's wall-clock constants exactly.
package config

import "fmt"

// Density is a DRAM device density in gigabits.
type Density int

// Device densities evaluated in the paper.
const (
	Density8Gb  Density = 8
	Density16Gb Density = 16
	Density24Gb Density = 24
	Density32Gb Density = 32
)

// Densities lists all supported densities in increasing order.
var Densities = []Density{Density8Gb, Density16Gb, Density24Gb, Density32Gb}

func (d Density) String() string { return fmt.Sprintf("%dGb", int(d)) }

// densityParams captures the density-dependent DRAM parameters from
// Table 1 (8 Gb values extrapolated from the cited tRFC trend).
type densityParams struct {
	tRFCabNS    float64 // all-bank refresh cycle time, ns
	rowsPerBank uint64
}

var densityTable = map[Density]densityParams{
	Density8Gb:  {tRFCabNS: 350, rowsPerBank: 128 * 1024},
	Density16Gb: {tRFCabNS: 530, rowsPerBank: 256 * 1024},
	Density24Gb: {tRFCabNS: 710, rowsPerBank: 384 * 1024},
	Density32Gb: {tRFCabNS: 890, rowsPerBank: 512 * 1024},
}

// RefreshPolicy selects the refresh scheduling scheme in the memory
// controller.
type RefreshPolicy string

// Supported refresh policies.
const (
	// RefreshNone disables refresh entirely (ideal upper bound).
	RefreshNone RefreshPolicy = "none"
	// RefreshAllBank is rank-level auto-refresh (DDR3/DDR4 1x default).
	RefreshAllBank RefreshPolicy = "allbank"
	// RefreshPerBankRR is LPDDR3-style round-robin per-bank refresh.
	RefreshPerBankRR RefreshPolicy = "perbank"
	// RefreshPerBankSeq is the paper's proposed schedule (Algorithm 1):
	// successive refresh intervals target the same bank until it is fully
	// refreshed, confining each bank's refresh activity to one contiguous
	// tREFW/numBanks slot.
	RefreshPerBankSeq RefreshPolicy = "perbankseq"
	// RefreshOOOPerBank is out-of-order per-bank refresh (Chang et al.,
	// HPCA 2014): the bank with the fewest outstanding requests is
	// refreshed next, subject to window-completeness forcing.
	RefreshOOOPerBank RefreshPolicy = "oooperbank"
	// RefreshFGR2x / RefreshFGR4x are DDR4 fine-granularity refresh modes.
	RefreshFGR2x RefreshPolicy = "fgr2x"
	RefreshFGR4x RefreshPolicy = "fgr4x"
	// RefreshAdaptive is Adaptive Refresh (Mukundan et al., ISCA 2013):
	// dynamic switching between DDR4 1x and 4x modes based on observed
	// channel utilization.
	RefreshAdaptive RefreshPolicy = "adaptive"
	// RefreshElastic is Elastic Refresh (Stuecheli et al., MICRO 2010):
	// rank refresh commands are postponed (up to the JEDEC limit of 8)
	// into idle periods.
	RefreshElastic RefreshPolicy = "elastic"
	// RefreshPausing is Refresh Pausing (Nair et al., HPCA 2013):
	// in-progress refreshes yield to demand requests and resume later.
	RefreshPausing RefreshPolicy = "pausing"
	// RefreshRAIDR is retention-aware intelligent refresh (Liu et al.,
	// ISCA 2012) over a synthetic retention profile.
	RefreshRAIDR RefreshPolicy = "raidr"
	// RefreshPerBankSA is round-robin per-bank refresh issued at
	// subarray granularity (requires Mem.SubarraysPerBank > 1): only
	// one subarray of the target bank is refresh-busy per command.
	RefreshPerBankSA RefreshPolicy = "perbanksa"
)

// AllocPolicy selects the OS physical-page allocation policy.
type AllocPolicy string

// Supported allocation policies.
const (
	// AllocBuddy is the baseline bank-oblivious buddy allocator.
	AllocBuddy AllocPolicy = "buddy"
	// AllocSoftPartition confines each task's pages to its
	// possible-banks vector, with banks shared between task groups
	// (Algorithm 2, the co-design default).
	AllocSoftPartition AllocPolicy = "soft"
	// AllocHardPartition gives each task exclusive banks (Liu et al.,
	// PACT 2012 style).
	AllocHardPartition AllocPolicy = "hard"
)

// SchedPolicy selects the OS task scheduler.
type SchedPolicy string

// Supported scheduling policies.
const (
	// SchedRR is the paper's baseline: round-robin with a fixed time
	// slice per CPU.
	SchedRR SchedPolicy = "rr"
	// SchedCFS is a Completely Fair Scheduler model: a per-CPU
	// runqueue ordered by vruntime.
	SchedCFS SchedPolicy = "cfs"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes  uint64
	Ways       int
	LineBytes  uint64
	HitLatency uint64 // cycles
	MSHRs      int    // outstanding misses supported (0 = unbounded)
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() uint64 {
	return c.SizeBytes / (uint64(c.Ways) * c.LineBytes)
}

// MemConfig describes the DRAM subsystem geometry and controller queues.
type MemConfig struct {
	Channels        int
	DIMMsPerChannel int
	RanksPerDIMM    int
	BanksPerRank    int
	RowBytes        uint64
	Density         Density
	// SubarraysPerBank enables SALP-style subarray-level refresh when
	// > 1: a per-bank refresh then occupies only one subarray while the
	// rest of the bank keeps serving requests (the paper's Section 7
	// extension direction). 0 or 1 means monolithic banks.
	SubarraysPerBank int

	ReadQueue      int
	WriteQueue     int
	WriteLowWater  int
	WriteHighWater int

	// ClosedPage selects a closed-row policy: banks auto-precharge
	// after each access instead of keeping the row open (Table 1 uses
	// open-row; this is an ablation knob).
	ClosedPage bool
	// FCFS selects strict first-come-first-served transaction
	// scheduling instead of FR-FCFS (ablation knob).
	FCFS bool
}

// Ranks returns the total ranks per channel.
func (m MemConfig) Ranks() int { return m.DIMMsPerChannel * m.RanksPerDIMM }

// BanksPerChannel returns the total banks in one channel.
func (m MemConfig) BanksPerChannel() int { return m.Ranks() * m.BanksPerRank }

// TotalBanks returns the total banks in the system.
func (m MemConfig) TotalBanks() int { return m.Channels * m.BanksPerChannel() }

// RowsPerBank returns the density-dependent rows per bank.
func (m MemConfig) RowsPerBank() uint64 { return densityTable[m.Density].rowsPerBank }

// BankCapacity returns bytes per bank.
func (m MemConfig) BankCapacity() uint64 { return m.RowsPerBank() * m.RowBytes }

// TotalCapacity returns bytes of physical memory in the system.
func (m MemConfig) TotalCapacity() uint64 {
	return uint64(m.TotalBanks()) * m.BankCapacity()
}

// RefreshConfig selects and parameterizes the refresh policy.
type RefreshConfig struct {
	Policy RefreshPolicy
	// TREFWms is the retention window in milliseconds before Scale:
	// 64 below 85°C, 32 above.
	TREFWms float64
}

// OSConfig describes the simulated kernel policies.
type OSConfig struct {
	Scheduler SchedPolicy
	Alloc     AllocPolicy
	// RefreshAware enables Algorithm 3 in pick_next_task.
	RefreshAware bool
	// TimesliceMS is the scheduling quantum in milliseconds before Scale.
	TimesliceMS float64
	// EtaThresh is the fairness threshold η: how many runnable candidates
	// pick_next_task may skip before falling back to the leftmost task.
	// 1 disables refresh awareness.
	EtaThresh int
	// BanksPerTask is the size of each task's possible-banks vector per
	// rank under soft/hard partitioning (6 of 8 in the paper's dual-core
	// 1:4 default).
	BanksPerTask int
	// CtxSwitchCycles is the direct cost charged at each context switch.
	CtxSwitchCycles uint64
	// PageFaultCycles is the kernel cost charged per minor page fault.
	PageFaultCycles uint64
}

// System is the top-level simulated machine description.
type System struct {
	Name string

	// Cores and per-core microarchitecture.
	Cores      int
	CPUFreqGHz float64
	ROB        int
	IssueWidth int
	// MLP bounds outstanding LLC misses per core (MSHR-limited).
	MLP int
	// BaseCPI is the average non-memory cost per instruction in cycles.
	BaseCPI float64

	L1  CacheConfig
	L2  CacheConfig
	Mem MemConfig

	Refresh RefreshConfig
	OS      OSConfig

	// Scale divides tREFW and the OS time slice (see package comment).
	Scale uint64
	// Seed drives every pseudo-random stream in the run.
	Seed uint64
}

// Cycles converts nanoseconds to CPU cycles, rounding up.
func (s *System) Cycles(ns float64) uint64 {
	c := ns * s.CPUFreqGHz
	u := uint64(c)
	if float64(u) < c {
		u++
	}
	return u
}

// TREFW returns the scaled retention window in cycles.
func (s *System) TREFW() uint64 {
	return s.Cycles(s.Refresh.TREFWms * 1e6 / float64(s.Scale))
}

// Timeslice returns the scaled OS quantum in cycles.
func (s *System) Timeslice() uint64 {
	return s.Cycles(s.OS.TimesliceMS * 1e6 / float64(s.Scale))
}

// TRFCab returns the density-dependent all-bank refresh cycle time in
// cycles (unscaled: ns-magnitude parameters are always real).
func (s *System) TRFCab() uint64 {
	return s.Cycles(densityTable[s.Mem.Density].tRFCabNS)
}

// TRFCpb returns the per-bank refresh cycle time: tRFCab divided by the
// 2.3 ratio the paper adopts from Chang et al.
func (s *System) TRFCpb() uint64 {
	return s.Cycles(densityTable[s.Mem.Density].tRFCabNS / 2.3)
}

// TREFIab returns the all-bank refresh interval (7.8 µs) in cycles.
func (s *System) TREFIab() uint64 { return s.Cycles(7800) }

// TRFCabNS returns the raw all-bank refresh cycle time in nanoseconds
// for a density — the one density-dependent refresh timing parameter.
// Unknown densities return 0.
func TRFCabNS(d Density) float64 { return densityTable[d].tRFCabNS }

// Validate reports configuration inconsistencies.
func (s *System) Validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", s.Cores)
	case s.Scale == 0:
		return fmt.Errorf("config: Scale must be >= 1")
	case s.CPUFreqGHz <= 0:
		return fmt.Errorf("config: CPUFreqGHz must be positive")
	case s.MLP <= 0:
		return fmt.Errorf("config: MLP must be positive")
	case s.Mem.Channels <= 0 || s.Mem.BanksPerRank <= 0 || s.Mem.RanksPerDIMM <= 0 || s.Mem.DIMMsPerChannel <= 0:
		return fmt.Errorf("config: memory geometry must be positive")
	case s.Mem.BanksPerChannel() > 64:
		// A task's possible-banks vector is a 64-bit mask.
		return fmt.Errorf("config: %d banks per channel exceed the 64 a bank mask holds", s.Mem.BanksPerChannel())
	case s.Mem.RowBytes == 0 || s.Mem.RowBytes&(s.Mem.RowBytes-1) != 0:
		return fmt.Errorf("config: RowBytes must be a power of two, got %d", s.Mem.RowBytes)
	case s.L1.LineBytes != s.L2.LineBytes:
		return fmt.Errorf("config: L1/L2 line sizes must match")
	}
	if _, ok := densityTable[s.Mem.Density]; !ok {
		return fmt.Errorf("config: unsupported density %d", s.Mem.Density)
	}
	if s.Mem.WriteHighWater > s.Mem.WriteQueue || s.Mem.WriteLowWater >= s.Mem.WriteHighWater {
		return fmt.Errorf("config: write watermarks must satisfy low < high <= queue")
	}
	if s.OS.BanksPerTask < 0 || s.OS.BanksPerTask > s.Mem.BanksPerRank {
		return fmt.Errorf("config: BanksPerTask out of range")
	}
	return nil
}

// Default returns the paper's Table 1 configuration: a dual-core 3.2 GHz
// out-of-order system, 32 KB L1s, 1 MB L2 per core, one DDR3-1600 channel
// with 2 ranks of 8 banks, FR-FCFS with 64/64 queues and 32/54 write
// watermarks, 64 ms retention, 4 ms time slice, all-bank refresh, buddy
// allocation, round-robin scheduling, at the given density and scale.
func Default(d Density, scale uint64) System {
	return System{
		Name:       "table1",
		Cores:      2,
		CPUFreqGHz: 3.2,
		ROB:        128,
		IssueWidth: 8,
		MLP:        8,
		BaseCPI:    0.5,
		L1: CacheConfig{
			SizeBytes: 32 * 1024, Ways: 4, LineBytes: 64, HitLatency: 2, MSHRs: 8,
		},
		L2: CacheConfig{
			SizeBytes: 1024 * 1024, Ways: 16, LineBytes: 64, HitLatency: 20, MSHRs: 16,
		},
		Mem: MemConfig{
			Channels:        1,
			DIMMsPerChannel: 1,
			RanksPerDIMM:    2,
			BanksPerRank:    8,
			RowBytes:        4096,
			Density:         d,
			ReadQueue:       64,
			WriteQueue:      64,
			WriteLowWater:   32,
			WriteHighWater:  54,
		},
		Refresh: RefreshConfig{
			Policy:  RefreshAllBank,
			TREFWms: 64,
		},
		OS: OSConfig{
			Scheduler:       SchedRR,
			Alloc:           AllocBuddy,
			RefreshAware:    false,
			TimesliceMS:     4,
			EtaThresh:       4,
			BanksPerTask:    6,
			CtxSwitchCycles: 4000,
			PageFaultCycles: 0,
		},
		Scale: scale,
		Seed:  1,
	}
}

// HighTemp adjusts cfg for >85°C operation: 32 ms retention and the 2 ms
// time slice the paper uses for those experiments.
func HighTemp(cfg System) System {
	cfg.Refresh.TREFWms = 32
	cfg.OS.TimesliceMS = 2
	return cfg
}
