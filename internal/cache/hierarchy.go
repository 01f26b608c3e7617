package cache

import "refsched/internal/config"

// Level identifies where an access was satisfied.
type Level int

// Access outcome levels.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelMemory
)

// Outcome describes one hierarchy access.
type Outcome struct {
	Level Level
	// HitCycles is the on-chip latency charged for this access (L1 or
	// L2 hit latency; for memory-bound accesses it is the L1+L2 probe
	// cost incurred before the miss leaves the chip).
	HitCycles uint64
	// MissLineAddr is the line-aligned address to fetch from DRAM when
	// Level == LevelMemory.
	MissLineAddr uint64
	// Writebacks lists dirty line addresses displaced all the way to
	// DRAM by this access. It aliases the hierarchy's scratch space, so
	// it is valid only until the next access.
	Writebacks []uint64
}

// Hierarchy is a per-core L1D + private L2 stack, write-back and
// write-allocate at both levels, mostly-inclusive (L2 evictions
// back-invalidate L1).
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	l1Lat uint64
	l2Lat uint64

	// wbScratch backs Outcome.Writebacks: an access writes back at most
	// an L1 victim that L2 no longer holds and a dirty L2 victim.
	wbScratch [2]uint64
}

// NewHierarchy builds the two-level stack from the system config.
func NewHierarchy(l1, l2 config.CacheConfig) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: c1, L2: c2, l1Lat: l1.HitLatency, l2Lat: l2.HitLatency}, nil
}

// Access performs one load (write=false) or store (write=true) at a byte
// address and returns where it was satisfied plus any DRAM write-backs.
//
// State is updated immediately (allocate-on-miss), which is the standard
// trace-driven simplification; the caller charges miss latency when the
// DRAM round trip completes.
func (h *Hierarchy) Access(addr uint64, write bool) Outcome {
	line := h.L1.LineAddr(addr)
	if h.L1.Lookup(line, write) {
		return Outcome{Level: LevelL1, HitCycles: h.l1Lat}
	}

	out := Outcome{HitCycles: h.l1Lat + h.l2Lat}
	wbs := h.wbScratch[:0]
	l2hit := h.L2.Lookup(line, false)

	// Allocate in L1; a dirty L1 victim lands in L2 (it must be there —
	// inclusive — but MarkDirty tolerates its absence by treating it as
	// a DRAM write-back).
	if v, ok := h.L1.Fill(line, write); ok && v.Dirty {
		if !h.L2.MarkDirty(v.Addr) {
			wbs = append(wbs, v.Addr)
		}
	}

	if l2hit {
		out.Level = LevelL2
		out.Writebacks = wbs
		return out
	}

	// L2 miss: allocate; dirty L2 victims drain to DRAM, and the victim
	// is back-invalidated from L1 to preserve inclusion. The victim may
	// be the L1 victim that MarkDirty just dirtied: Fill reads its dirty
	// bit now, not as it stood at the probe.
	if v, ok := h.L2.Fill(line, false); ok {
		dirtyInL1, _ := h.L1.Invalidate(v.Addr)
		if v.Dirty || dirtyInL1 {
			wbs = append(wbs, v.Addr)
		}
	}
	out.Level = LevelMemory
	out.MissLineAddr = line
	out.Writebacks = wbs
	return out
}

// LLCMisses returns the L2 miss count (the MPKI numerator).
func (h *Hierarchy) LLCMisses() uint64 { return h.L2.Stats.Misses }
