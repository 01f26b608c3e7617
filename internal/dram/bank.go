package dram

import "refsched/internal/sim"

// BankStats accumulates per-bank activity counters.
type BankStats struct {
	Reads             uint64
	Writes            uint64
	RowHits           uint64
	RowMisses         uint64 // closed-row activates
	RowConflicts      uint64 // precharge-then-activate
	Refreshes         uint64 // refresh commands received
	RowsRefreshed     uint64
	RefreshBusyCycles uint64
}

// Bank models one DRAM bank: its open row, command occupancy, and refresh
// occupancy.
type Bank struct {
	// OpenRow is the row latched in the sense amplifiers, or -1 if the
	// bank is precharged.
	openRow int64
	// readyAt is when the bank can accept its next command.
	readyAt sim.Time
	// lastActAt is when the open row was activated (for tRAS).
	lastActAt sim.Time
	// writeRecoveryAt is the earliest precharge time after a write (tWR).
	writeRecoveryAt sim.Time
	// refUntil is the end of the in-progress bank/rank-level refresh.
	refUntil sim.Time

	// subarrays (SALP-style, Kim et al. ISCA 2012) allow refresh to be
	// confined to one subarray while the others keep serving requests
	// (Chang et al. HPCA 2014; Zhang et al. HPCA 2014). subRefUntil is
	// the per-subarray refresh occupancy; nil when the bank is
	// monolithic.
	subRefUntil []sim.Time

	Stats BankStats
}

// NewBank returns a precharged, idle, monolithic bank.
func NewBank() *Bank { return &Bank{openRow: -1} }

// NewBankWithSubarrays returns a bank divided into n subarrays that can
// be refreshed independently. n <= 1 yields a monolithic bank.
func NewBankWithSubarrays(n int) *Bank {
	b := NewBank()
	if n > 1 {
		b.subRefUntil = make([]sim.Time, n)
	}
	return b
}

// Subarrays returns the subarray count (1 for monolithic banks).
func (b *Bank) Subarrays() int {
	if b.subRefUntil == nil {
		return 1
	}
	return len(b.subRefUntil)
}

// SubarrayOf maps a row to its subarray (rows interleave across
// subarrays).
func (b *Bank) SubarrayOf(row uint64) int {
	if b.subRefUntil == nil {
		return 0
	}
	return int(row % uint64(len(b.subRefUntil)))
}

// RefreshingRow reports whether an access to row is blocked by refresh
// at time t — either a bank/rank-level refresh or a refresh of the
// row's subarray.
func (b *Bank) RefreshingRow(row uint64, t sim.Time) bool {
	if t < b.refUntil {
		return true
	}
	if b.subRefUntil == nil {
		return false
	}
	return t < b.subRefUntil[b.SubarrayOf(row)]
}

// RowRefreshUntil returns when an access to row stops being
// refresh-blocked.
func (b *Bank) RowRefreshUntil(row uint64) sim.Time {
	u := b.refUntil
	if b.subRefUntil != nil {
		if s := b.subRefUntil[b.SubarrayOf(row)]; s > u {
			u = s
		}
	}
	return u
}

// StartSubarrayRefresh refreshes rows rows of one subarray for dur
// cycles. Other subarrays of the bank remain accessible (SALP). If the
// bank's open row lives in the target subarray it is closed first.
func (b *Bank) StartSubarrayRefresh(due sim.Time, sub int, dur, rows uint64, tm *Timing) sim.Time {
	if b.subRefUntil == nil {
		return b.StartRefresh(due, dur, rows, tm)
	}
	start := due
	if b.openRow >= 0 && b.SubarrayOf(uint64(b.openRow)) == sub {
		if b.readyAt > start {
			start = b.readyAt
		}
		if b.writeRecoveryAt > start {
			start = b.writeRecoveryAt
		}
		if m := b.lastActAt + tm.TRAS; m > start {
			start = m
		}
		b.openRow = -1
	}
	end := start + sim.Time(dur)
	b.subRefUntil[sub] = end
	b.Stats.Refreshes++
	b.Stats.RowsRefreshed += rows
	b.Stats.RefreshBusyCycles += dur
	return end
}

// OpenRow returns the currently open row, or -1 if precharged.
func (b *Bank) OpenRow() int64 { return b.openRow }

// ReadyAt returns when the bank can accept its next regular command,
// considering both command occupancy and any in-progress refresh.
func (b *Bank) ReadyAt() sim.Time {
	if b.refUntil > b.readyAt {
		return b.refUntil
	}
	return b.readyAt
}

// AccessPlan describes the timing of one planned read or write.
type AccessPlan struct {
	Start     sim.Time // command issue time
	DataStart sim.Time // first beat on the data bus
	DataEnd   sim.Time // bus released
	BankReady sim.Time // bank can take its next command
	RowHit    bool
	Conflict  bool // needed a precharge first
	Write     bool
	Row       uint64
}

// PlanAccess computes the timing of a read/write to row at or after
// earliest (already the max of "now", controller decision time, and any
// queue constraints), with the data bus free at busFree. It does not
// mutate the bank; call Commit to apply the plan.
func (b *Bank) PlanAccess(earliest, busFree sim.Time, row uint64, write bool, tm *Timing) AccessPlan {
	start := earliest
	if r := b.ReadyAt(); r > start {
		start = r
	}
	if b.subRefUntil != nil {
		if s := b.subRefUntil[b.SubarrayOf(row)]; s > start {
			start = s
		}
	}

	var casAt sim.Time
	p := AccessPlan{Write: write, Row: row}
	switch {
	case b.openRow == int64(row):
		// Row hit: CAS immediately.
		p.RowHit = true
		casAt = start
	case b.openRow < 0:
		// Closed: ACT then CAS.
		casAt = start + tm.TRCD
	default:
		// Conflict: PRE (respecting tRAS and tWR), ACT, CAS.
		p.Conflict = true
		preAt := start
		if m := b.lastActAt + tm.TRAS; m > preAt {
			preAt = m
		}
		if b.writeRecoveryAt > preAt {
			preAt = b.writeRecoveryAt
		}
		start = preAt
		casAt = preAt + tm.TRP + tm.TRCD
	}

	// Data must not overlap another burst on the shared channel bus.
	dataStart := casAt + tm.TCL
	if dataStart < busFree {
		shift := busFree - dataStart
		start += shift
		casAt += shift
		dataStart = busFree
	}

	p.Start = start
	p.DataStart = dataStart
	p.DataEnd = dataStart + tm.TBL
	// The bank can stream the next CAS one burst later.
	p.BankReady = casAt + tm.TCCD
	if p.BankReady < casAt+tm.TBL {
		p.BankReady = casAt + tm.TBL
	}
	return p
}

// Commit applies a previously planned access to the bank state.
func (b *Bank) Commit(p AccessPlan, tm *Timing) {
	if !p.RowHit {
		b.lastActAt = p.Start
		if p.Conflict {
			b.lastActAt = p.Start + tm.TRP
			b.Stats.RowConflicts++
		} else {
			b.Stats.RowMisses++
		}
	} else {
		b.Stats.RowHits++
	}
	b.openRow = int64(p.Row)
	b.readyAt = p.BankReady
	if p.Write {
		b.Stats.Writes++
		b.writeRecoveryAt = p.DataEnd + tm.TWR
	} else {
		b.Stats.Reads++
	}
}

// AutoPrecharge closes the open row immediately after the last
// committed access (closed-page policy): the bank is busy through the
// precharge and the next access will activate from scratch.
func (b *Bank) AutoPrecharge(tm *Timing) {
	if b.openRow < 0 {
		return
	}
	pre := b.readyAt
	if m := b.lastActAt + tm.TRAS; m > pre {
		pre = m
	}
	if b.writeRecoveryAt > pre {
		pre = b.writeRecoveryAt
	}
	b.openRow = -1
	b.readyAt = pre + tm.TRP
}

// AbortRefresh pauses an in-progress refresh (refresh pausing, Nair et
// al. HPCA 2013): the bank frees after penalty cycles and the remaining
// refresh duration is returned so the controller can reschedule it. It
// returns 0 if no refresh is in progress.
func (b *Bank) AbortRefresh(now sim.Time, penalty uint64) uint64 {
	if now >= b.refUntil {
		return 0
	}
	remaining := uint64(b.refUntil - now)
	newEnd := now + sim.Time(penalty)
	// Give back the cycles this refresh will no longer occupy.
	b.Stats.RefreshBusyCycles -= remaining
	b.Stats.RefreshBusyCycles += penalty
	if b.readyAt == b.refUntil {
		b.readyAt = newEnd
	}
	b.refUntil = newEnd
	return remaining
}

// StartRefresh begins a refresh occupying the bank for dur cycles,
// starting no earlier than the bank's current occupancy allows. A refresh
// implicitly precharges the bank. It returns the completion time.
func (b *Bank) StartRefresh(due sim.Time, dur uint64, rows uint64, tm *Timing) sim.Time {
	start := due
	if b.readyAt > start {
		start = b.readyAt
	}
	if b.writeRecoveryAt > start {
		start = b.writeRecoveryAt
	}
	if m := b.lastActAt + tm.TRAS; b.openRow >= 0 && m > start {
		start = m
	}
	end := start + sim.Time(dur)
	b.openRow = -1
	b.refUntil = end
	if end > b.readyAt {
		b.readyAt = end
	}
	b.Stats.Refreshes++
	b.Stats.RowsRefreshed += rows
	b.Stats.RefreshBusyCycles += uint64(end - start)
	return end
}
