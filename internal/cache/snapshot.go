package cache

// State is the serializable content of one cache level: every line's
// tag, each set's LRU order and valid and dirty masks, and the stats.
// Geometry (sets, ways, line size) is not part of the state — a restore
// target must be built from the same config, and SetState enforces the
// sizes.
type State struct {
	Tags  []uint32
	Order []uint64
	Valid []uint16
	Dirty []uint16
	Stats Stats
}

// State captures a deep copy of the cache content.
func (c *Cache) State() State {
	st := State{
		Tags:  append([]uint32(nil), c.tags...),
		Order: make([]uint64, len(c.meta)),
		Valid: make([]uint16, len(c.meta)),
		Dirty: make([]uint16, len(c.meta)),
		Stats: c.Stats,
	}
	for i, m := range c.meta {
		st.Order[i], st.Valid[i], st.Dirty[i] = m.order, m.valid, m.dirty
	}
	return st
}

// SetState restores cache content captured from an identically
// configured cache.
func (c *Cache) SetState(st State) {
	if len(st.Tags) != len(c.tags) || len(st.Order) != len(c.meta) ||
		len(st.Valid) != len(c.meta) || len(st.Dirty) != len(c.meta) {
		panic("cache: snapshot geometry mismatch")
	}
	copy(c.tags, st.Tags)
	for i := range c.meta {
		c.meta[i] = setMeta{order: st.Order[i], valid: st.Valid[i], dirty: st.Dirty[i]}
	}
	c.Stats = st.Stats
}

// HierarchyState bundles both levels of a per-core cache stack.
type HierarchyState struct {
	L1 State
	L2 State
}

// State captures both cache levels.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{L1: h.L1.State(), L2: h.L2.State()}
}

// SetState restores both cache levels.
func (h *Hierarchy) SetState(st HierarchyState) {
	h.L1.SetState(st.L1)
	h.L2.SetState(st.L2)
}
