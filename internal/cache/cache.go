// Package cache implements the on-chip cache hierarchy: set-associative,
// write-back, write-allocate caches with LRU replacement, composed into a
// per-core two-level hierarchy (32 KB L1D + 1 MB private L2 in the
// paper's configuration, Table 1).
//
// The model is state-accurate and trace-driven: an access updates tag
// state immediately and reports the level that hit plus any dirty line
// evicted to the next level. Timing (hit latencies, miss handling,
// outstanding-miss limits) is the caller's concern — the CPU core model
// charges latencies and the memory controller handles DRAM-bound misses.
package cache

import (
	"fmt"
	"math/bits"

	"refsched/internal/config"
)

// MaxWays is the highest associativity a Cache supports: a set's LRU
// order holds one way per nibble of a 64-bit word.
const MaxWays = 16

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions handed to the next level
}

// MissRate returns misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// setMeta is one set's replacement and status state.
type setMeta struct {
	// order lists the set's ways from least to most recently used, one
	// way per nibble, the LRU way in the low nibble. Nibbles at and
	// above the associativity are zero.
	order uint64
	// valid and dirty hold one bit per way.
	valid, dirty uint16
}

// Cache is one set-associative, write-back, write-allocate cache level.
//
// A line's tag is its address above the line and set-index bits, held
// in 32 bits: core.Build refuses a machine whose physical addresses
// would not fit. Tags are set-major (index set*ways + way), so a 16-way
// set's tags fill one 64-byte host cache line and a probe reads them in
// one scan.
type Cache struct {
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64
	mruShift uint // nibble offset of the MRU way in setMeta.order
	fullMask uint16

	tags []uint32
	meta []setMeta

	Stats Stats
}

// New builds an empty cache from a level config.
func New(cfg config.CacheConfig) (*Cache, error) {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size must be a power of two, got %d", cfg.LineBytes)
	}
	if cfg.Ways <= 0 || cfg.Ways > MaxWays {
		return nil, fmt.Errorf("cache: ways must be in 1..%d, got %d", MaxWays, cfg.Ways)
	}
	sets := cfg.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count must be a positive power of two, got %d", sets)
	}
	c := &Cache{
		ways:     cfg.Ways,
		lineBits: uint(bits.TrailingZeros64(cfg.LineBytes)),
		setBits:  uint(bits.TrailingZeros64(sets)),
		setMask:  sets - 1,
		mruShift: 4 * uint(cfg.Ways-1),
		fullMask: uint16(1<<cfg.Ways - 1),
		tags:     make([]uint32, sets*uint64(cfg.Ways)),
		meta:     make([]setMeta, sets),
	}
	var order uint64
	for w := 0; w < cfg.Ways; w++ {
		order |= uint64(w) << (4 * w)
	}
	for i := range c.meta {
		c.meta[i].order = order
	}
	return c, nil
}

// LineAddr converts a byte address to its line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  uint64 // line-aligned byte address
	Dirty bool
}

// locate splits addr into its set index and tag.
func (c *Cache) locate(addr uint64) (set uint64, tag uint32) {
	line := addr >> c.lineBits
	return line & c.setMask, uint32(line >> c.setBits)
}

// find returns the way holding tag in set, or -1.
func (c *Cache) find(set uint64, tag uint32) int {
	valid := c.meta[set].valid
	base := set * uint64(c.ways)
	for w, t := range c.tags[base : base+uint64(c.ways)] {
		if t == tag && valid&(1<<w) != 0 {
			return w
		}
	}
	return -1
}

// nibbles is 1 in every nibble of a word.
const nibbles = 0x1111111111111111

// touch makes way w the most recently used way of m.
func (c *Cache) touch(m *setMeta, w int) {
	// The order is a permutation, so exactly one of its nibbles holds w
	// (a zero nibble above the associativity can match only w == 0, and
	// only above w's own nibble). x has a zero nibble there, and the
	// lowest high bit that (x - nibbles) &^ x sets is that nibble's:
	// a borrow only propagates upward from a zero nibble.
	x := m.order ^ uint64(w)*nibbles
	p := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<p - 1
	m.order = m.order&below | m.order>>4&^below | uint64(w)<<c.mruShift
}

// Lookup probes the cache without filling. On hit it updates LRU state
// and, for writes, marks the line dirty.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.Stats.Accesses++
	set, tag := c.locate(addr)
	w := c.find(set, tag)
	if w < 0 {
		c.Stats.Misses++
		return false
	}
	c.Stats.Hits++
	m := &c.meta[set]
	c.touch(m, w)
	if write {
		m.dirty |= 1 << w
	}
	return true
}

// Fill allocates a line for addr (which must have just missed), evicting
// the LRU way if the set is full. The victim is the lowest-numbered
// invalid way when there is one, so filling needs no scan. The returned
// victim is valid when a line was displaced. The new line is dirty when
// the triggering access was a write.
func (c *Cache) Fill(addr uint64, write bool) (Victim, bool) {
	set, tag := c.locate(addr)
	m := &c.meta[set]
	var w int
	if free := ^m.valid & c.fullMask; free != 0 {
		w = bits.TrailingZeros16(free)
	} else {
		w = int(m.order & 0xF)
	}
	i := set*uint64(c.ways) + uint64(w)
	bit := uint16(1) << w

	var v Victim
	had := m.valid&bit != 0
	if had {
		c.Stats.Evictions++
		v = Victim{Addr: (uint64(c.tags[i])<<c.setBits | set) << c.lineBits, Dirty: m.dirty&bit != 0}
		if v.Dirty {
			c.Stats.Writebacks++
		}
	}
	c.tags[i] = tag
	m.valid |= bit
	if write {
		m.dirty |= bit
	} else {
		m.dirty &^= bit
	}
	c.touch(m, w)
	return v, had
}

// Invalidate drops addr's line if present, returning whether it was
// present and dirty (the caller must write it back).
func (c *Cache) Invalidate(addr uint64) (wasDirty, present bool) {
	set, tag := c.locate(addr)
	w := c.find(set, tag)
	if w < 0 {
		return false, false
	}
	m := &c.meta[set]
	bit := uint16(1) << w
	wasDirty = m.dirty&bit != 0
	m.valid &^= bit
	m.dirty &^= bit
	return wasDirty, true
}

// MarkDirty sets the dirty bit on addr's line if present (used when an L1
// dirty eviction lands in L2).
func (c *Cache) MarkDirty(addr uint64) bool {
	set, tag := c.locate(addr)
	w := c.find(set, tag)
	if w < 0 {
		return false
	}
	c.meta[set].dirty |= 1 << w
	return true
}

// Contains probes without touching LRU or stats (for tests/invariants).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	return c.find(set, tag) >= 0
}
