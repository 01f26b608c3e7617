package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"refsched/internal/config"
)

func smallCfg(size uint64, ways int) config.CacheConfig {
	return config.CacheConfig{SizeBytes: size, Ways: ways, LineBytes: 64, HitLatency: 2}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := New(smallCfg(4096, 4)) // 16 sets
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(0x1000, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("post-fill lookup missed")
	}
	if !c.Lookup(0x1020, false) {
		t.Fatal("same-line offset missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := New(smallCfg(1024, 2)) // 8 sets, 2 ways; set stride 512B
	// Three lines mapping to set 0: 0x0, 0x200, 0x400.
	c.Lookup(0x0, false)
	c.Fill(0x0, false)
	c.Lookup(0x200, false)
	c.Fill(0x200, false)
	// Touch 0x0 so 0x200 is LRU.
	c.Lookup(0x0, false)
	c.Lookup(0x400, false)
	v, had := c.Fill(0x400, false)
	if !had || v.Addr != 0x200 {
		t.Fatalf("evicted %+v, want 0x200", v)
	}
	if !c.Contains(0x0) || c.Contains(0x200) || !c.Contains(0x400) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c, _ := New(smallCfg(1024, 2))
	c.Lookup(0x0, true)
	c.Fill(0x0, true) // dirty fill
	c.Fill(0x200, false)
	v, had := c.Fill(0x400, false) // evicts 0x0 (LRU)
	if !had || !v.Dirty || v.Addr != 0x0 {
		t.Fatalf("dirty eviction = %+v had=%v", v, had)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCacheWriteHitSetsDirty(t *testing.T) {
	c, _ := New(smallCfg(1024, 2))
	c.Fill(0x0, false)
	c.Lookup(0x0, true) // write hit dirties the line
	c.Fill(0x200, false)
	v, _ := c.Fill(0x400, false)
	if !v.Dirty {
		t.Fatal("write-hit line evicted clean")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, _ := New(smallCfg(1024, 2))
	c.Fill(0x0, true)
	dirty, present := c.Invalidate(0x0)
	if !present || !dirty {
		t.Fatalf("Invalidate = dirty=%v present=%v", dirty, present)
	}
	if _, present := c.Invalidate(0x0); present {
		t.Fatal("double invalidate found the line")
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c, _ := New(smallCfg(1024, 2))
	c.Fill(0x0, false)
	if !c.MarkDirty(0x0) {
		t.Fatal("MarkDirty missed present line")
	}
	if c.MarkDirty(0x999000) {
		t.Fatal("MarkDirty hit absent line")
	}
}

func TestCacheRejectsBadShapes(t *testing.T) {
	bad := []config.CacheConfig{
		{SizeBytes: 1000, Ways: 2, LineBytes: 64},         // non-pow2 sets
		{SizeBytes: 1024, Ways: 0, LineBytes: 64},         // no ways
		{SizeBytes: 1024, Ways: 2, LineBytes: 60},         // non-pow2 line
		{SizeBytes: 4 * 17 * 64, Ways: 17, LineBytes: 64}, // past MaxWays
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// refModel is a brute-force LRU cache used as the oracle for the
// property tests. It keeps each set as an MRU-first list of line
// addresses and counts activity the way Stats does.
type refModel struct {
	sets  uint64
	ways  int
	lines map[uint64][]uint64 // set -> MRU-first line addrs
	dirty map[uint64]bool
	stats Stats
}

func newRefModel(sets uint64, ways int) *refModel {
	return &refModel{sets: sets, ways: ways, lines: map[uint64][]uint64{}, dirty: map[uint64]bool{}}
}

func (m *refModel) set(addr uint64) uint64 { return (addr >> 6) % m.sets }

// index returns addr's position in its set's list, or -1.
func (m *refModel) index(addr uint64) int {
	for i, a := range m.lines[m.set(addr)] {
		if a == addr {
			return i
		}
	}
	return -1
}

// lookup mirrors Cache.Lookup.
func (m *refModel) lookup(addr uint64, write bool) bool {
	addr = addr >> 6 << 6
	m.stats.Accesses++
	s := m.set(addr)
	i := m.index(addr)
	if i < 0 {
		m.stats.Misses++
		return false
	}
	m.stats.Hits++
	m.lines[s] = append(append([]uint64{addr}, m.lines[s][:i]...), m.lines[s][i+1:]...)
	if write {
		m.dirty[addr] = true
	}
	return true
}

// fill mirrors Cache.Fill: insert at MRU, evicting the LRU line of a
// full set.
func (m *refModel) fill(addr uint64, write bool) (victim uint64, evicted, victimDirty bool) {
	addr = addr >> 6 << 6
	s := m.set(addr)
	if len(m.lines[s]) == m.ways {
		last := m.lines[s][len(m.lines[s])-1]
		victim, evicted, victimDirty = last, true, m.dirty[last]
		m.stats.Evictions++
		if victimDirty {
			m.stats.Writebacks++
		}
		delete(m.dirty, last)
		m.lines[s] = m.lines[s][:len(m.lines[s])-1]
	}
	m.lines[s] = append([]uint64{addr}, m.lines[s]...)
	m.dirty[addr] = write
	return victim, evicted, victimDirty
}

// access is a lookup followed, on a miss, by a fill.
func (m *refModel) access(addr uint64, write bool) (hit bool, victim uint64, evicted, victimDirty bool) {
	if m.lookup(addr, write) {
		return true, 0, false, false
	}
	victim, evicted, victimDirty = m.fill(addr, write)
	return false, victim, evicted, victimDirty
}

// invalidate mirrors Cache.Invalidate.
func (m *refModel) invalidate(addr uint64) (wasDirty, present bool) {
	addr = addr >> 6 << 6
	i := m.index(addr)
	if i < 0 {
		return false, false
	}
	s := m.set(addr)
	m.lines[s] = append(m.lines[s][:i:i], m.lines[s][i+1:]...)
	wasDirty = m.dirty[addr]
	delete(m.dirty, addr)
	return wasDirty, true
}

// markDirty mirrors Cache.MarkDirty: no LRU change.
func (m *refModel) markDirty(addr uint64) bool {
	addr = addr >> 6 << 6
	if m.index(addr) < 0 {
		return false
	}
	m.dirty[addr] = true
	return true
}

// TestCacheMatchesReferenceModel drives seeded random operation
// sequences through the cache and the brute-force oracle at every
// associativity from 1 to MaxWays and demands identical hits, victims,
// dirtiness, contents and stats. The lines are drawn from a pool a few
// ways larger than the cache, so every set overflows; invalidations
// punch holes that later fills must take before evicting, and
// MarkDirty changes dirtiness without touching the LRU order.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const sets = 4
	for ways := 1; ways <= MaxWays; ways++ {
		ways := ways
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			t.Parallel()
			pool := sets * (ways + 3)
			f := func(seed int64) bool {
				c, err := New(smallCfg(sets*64*uint64(ways), ways))
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefModel(sets, ways)
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 3000; op++ {
					addr := uint64(rng.Intn(pool))<<6 | uint64(rng.Intn(64))
					write := rng.Intn(4) == 0
					switch k := rng.Intn(10); {
					case k == 0:
						wd, wp := ref.invalidate(addr)
						if gd, gp := c.Invalidate(addr); gd != wd || gp != wp {
							t.Logf("op %d: Invalidate(%#x) = %v,%v, want %v,%v", op, addr, gd, gp, wd, wp)
							return false
						}
					case k == 1:
						if got, want := c.MarkDirty(addr), ref.markDirty(addr); got != want {
							t.Logf("op %d: MarkDirty(%#x) = %v, want %v", op, addr, got, want)
							return false
						}
					default:
						wantHit, wantVictim, wantEvicted, wantDirty := ref.access(addr, write)
						if gotHit := c.Lookup(addr, write); gotHit != wantHit {
							t.Logf("op %d: Lookup(%#x) = %v, want %v", op, addr, gotHit, wantHit)
							return false
						} else if gotHit {
							continue
						}
						v, had := c.Fill(addr, write)
						if had != wantEvicted || had && (v.Addr != wantVictim || v.Dirty != wantDirty) {
							t.Logf("op %d: Fill(%#x) evicted %+v,%v, want {%#x %v},%v",
								op, addr, v, had, wantVictim, wantDirty, wantEvicted)
							return false
						}
					}
				}
				for l := 0; l < pool; l++ {
					if c.Contains(uint64(l)<<6) != (ref.index(uint64(l)<<6) >= 0) {
						t.Logf("line %#x: Contains disagrees", l<<6)
						return false
					}
				}
				if c.Stats != ref.stats {
					t.Logf("stats %+v, want %+v", c.Stats, ref.stats)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// refHierarchy composes two reference models by Hierarchy's rules:
// probe L1, then L2; allocate in L1, folding a dirty L1 victim into
// L2; on an L2 miss allocate in L2, back-invalidate its victim from L1
// and write it back if it is dirty in either level.
type refHierarchy struct {
	l1, l2 *refModel
	// backInvalidated counts L2 victims that L1 still held;
	// dirtyVictimTwice counts accesses whose dirty L1 victim was also
	// the L2 victim: MarkDirty dirtied it between the L2 probe and the
	// L2 fill.
	backInvalidated, dirtyVictimTwice int
}

func (h *refHierarchy) access(addr uint64, write bool) (Level, []uint64) {
	line := addr >> 6 << 6
	if h.l1.lookup(line, write) {
		return LevelL1, nil
	}
	var wbs []uint64
	l2hit := h.l2.lookup(line, false)
	v1, ev1, dirty1 := h.l1.fill(line, write)
	if ev1 && dirty1 && !h.l2.markDirty(v1) {
		wbs = append(wbs, v1)
	}
	if l2hit {
		return LevelL2, wbs
	}
	if v2, ev2, dirty2 := h.l2.fill(line, false); ev2 {
		if ev1 && dirty1 && v2 == v1 {
			h.dirtyVictimTwice++
		}
		inL1Dirty, inL1 := h.l1.invalidate(v2)
		if inL1 {
			h.backInvalidated++
		}
		if dirty2 || inL1Dirty {
			wbs = append(wbs, v2)
		}
	}
	return LevelMemory, wbs
}

// TestHierarchyMatchesReferenceModel drives seeded random streams
// through Hierarchy.Access and refHierarchy and demands the same level,
// hit cycles, miss address and write-backs per access, and the same
// contents and stats of both levels at the end. The geometries include
// an L2 no larger than L1 and an L2 with fewer sets than L1, where L2
// often evicts a line L1 still holds (so back-invalidation runs) and
// the dirty victim L1 just handed it; the test fails if the streams
// never reach those cases.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	geoms := []struct{ l1Sets, l1Ways, l2Sets, l2Ways int }{
		{2, 2, 2, 2},
		{4, 1, 1, 4},
		{2, 2, 4, 4},
		{2, 4, 8, 16},
	}
	var backInvalidated, dirtyVictimTwice int
	for _, g := range geoms {
		t.Run(fmt.Sprintf("L1=%dx%d,L2=%dx%d", g.l1Sets, g.l1Ways, g.l2Sets, g.l2Ways), func(t *testing.T) {
			pool := 3 * g.l2Sets * g.l2Ways / 2
			f := func(seed int64) bool {
				l1 := smallCfg(uint64(g.l1Sets*g.l1Ways*64), g.l1Ways)
				l2 := smallCfg(uint64(g.l2Sets*g.l2Ways*64), g.l2Ways)
				l2.HitLatency = 20
				h, err := NewHierarchy(l1, l2)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refHierarchy{l1: newRefModel(uint64(g.l1Sets), g.l1Ways), l2: newRefModel(uint64(g.l2Sets), g.l2Ways)}
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 3000; op++ {
					addr := uint64(rng.Intn(pool))<<6 | uint64(rng.Intn(64))
					write := rng.Intn(3) == 0
					level, wbs := ref.access(addr, write)
					wantCycles, wantMiss := l1.HitLatency, uint64(0)
					if level != LevelL1 {
						wantCycles += l2.HitLatency
					}
					if level == LevelMemory {
						wantMiss = addr >> 6 << 6
					}
					o := h.Access(addr, write)
					if o.Level != level || o.HitCycles != wantCycles || o.MissLineAddr != wantMiss || !slices.Equal(o.Writebacks, wbs) {
						t.Logf("op %d: Access(%#x, %v) = %+v, want level %v, %d cycles, miss %#x, write-backs %v",
							op, addr, write, o, level, wantCycles, wantMiss, wbs)
						return false
					}
				}
				for l := 0; l < pool; l++ {
					a := uint64(l) << 6
					if h.L1.Contains(a) != (ref.l1.index(a) >= 0) || h.L2.Contains(a) != (ref.l2.index(a) >= 0) {
						t.Logf("line %#x: contents disagree", a)
						return false
					}
				}
				if h.L1.Stats != ref.l1.stats || h.L2.Stats != ref.l2.stats {
					t.Logf("stats L1 %+v L2 %+v, want %+v %+v", h.L1.Stats, h.L2.Stats, ref.l1.stats, ref.l2.stats)
					return false
				}
				backInvalidated += ref.backInvalidated
				dirtyVictimTwice += ref.dirtyVictimTwice
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if backInvalidated == 0 || dirtyVictimTwice == 0 {
		t.Errorf("streams back-invalidated %d L1 lines and evicted %d dirty L1 victims from L2; want both > 0",
			backInvalidated, dirtyVictimTwice)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(smallCfg(1024, 2), smallCfg(8192, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Cold: memory.
	o := h.Access(0x5000, false)
	if o.Level != LevelMemory || o.MissLineAddr != 0x5000 {
		t.Fatalf("cold access = %+v", o)
	}
	// Now in both levels: L1 hit.
	if o := h.Access(0x5000, false); o.Level != LevelL1 {
		t.Fatalf("second access level = %v", o.Level)
	}
	// Evict from L1 (thrash its set) but not L2, then re-access: L2 hit.
	h.Access(0x5000+1*512, false)
	h.Access(0x5000+2*512, false)
	h.Access(0x5000+3*512, false)
	if o := h.Access(0x5000, false); o.Level != LevelL2 {
		t.Fatalf("post-L1-eviction level = %v, want L2", o.Level)
	}
}

func TestHierarchyWritebackPath(t *testing.T) {
	h, _ := NewHierarchy(smallCfg(1024, 2), smallCfg(2048, 2)) // tiny L2: 16 sets... 2048/2/64=16 sets
	// Dirty a line, then thrash the L2 set until it drains to DRAM.
	h.Access(0x0, true)
	var wbs []uint64
	for i := uint64(1); i < 8; i++ {
		o := h.Access(i*2048, false) // same L2 set as 0x0 (16 sets * 64B = 1024 stride? use 2048 to be safe)
		wbs = append(wbs, o.Writebacks...)
	}
	found := false
	for _, wb := range wbs {
		if wb == 0x0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty line 0x0 never written back; wbs=%v", wbs)
	}
}

func TestHierarchyInclusionBackInvalidate(t *testing.T) {
	h, _ := NewHierarchy(smallCfg(1024, 2), smallCfg(2048, 2))
	h.Access(0x0, false)
	// Thrash L2 set 0 so 0x0 is evicted from L2.
	for i := uint64(1); i < 8; i++ {
		h.Access(i*1024, false)
	}
	// 0x0 must not be an L1 hit anymore (back-invalidated).
	if h.L1.Contains(0x0) {
		t.Fatal("L1 retains line evicted from L2 (inclusion violated)")
	}
}

func TestHierarchyLLCMissesCount(t *testing.T) {
	h, _ := NewHierarchy(smallCfg(1024, 2), smallCfg(8192, 4))
	for i := uint64(0); i < 10; i++ {
		h.Access(i*64, false)
	}
	if h.LLCMisses() != 10 {
		t.Fatalf("LLCMisses = %d, want 10", h.LLCMisses())
	}
}
