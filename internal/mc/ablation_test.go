package mc

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

// TestClosedPageLosesRowHits: under the closed-page ablation, two
// accesses to the same row both pay activation; under open-page the
// second is a fast row hit.
func TestClosedPageLosesRowHits(t *testing.T) {
	timeFor := func(closed bool) sim.Time {
		r := newRigWith(t, config.RefreshNone, func(m *config.MemConfig) { m.ClosedPage = closed })
		d1 := r.read(t, 0, 0, 5)
		r.runIdle()
		_ = d1
		d2 := r.read(t, 0, 0, 5)
		r.runIdle()
		return *d2
	}
	open := timeFor(false)
	closed := timeFor(true)
	if closed <= open {
		t.Fatalf("closed-page same-row re-access (%d) should be slower than open-page (%d)", closed, open)
	}
}

// TestClosedPageBankStateAlwaysPrecharged: after any access the bank is
// closed.
func TestClosedPageBankStateAlwaysPrecharged(t *testing.T) {
	r := newRigWith(t, config.RefreshNone, func(m *config.MemConfig) { m.ClosedPage = true })
	r.read(t, 0, 3, 9)
	r.runIdle()
	if r.ch.BankAt(0, 3).OpenRow() != -1 {
		t.Fatal("closed-page bank left a row open")
	}
}

// TestFCFSDoesNotReorder: with FCFS an older row-conflict request is
// served before a younger row hit.
func TestFCFSDoesNotReorder(t *testing.T) {
	r := newRigWith(t, config.RefreshNone, func(m *config.MemConfig) { m.FCFS = true })
	// Open row 1.
	first := r.read(t, 0, 0, 1)
	r.runIdle()
	_ = first
	conflict := r.read(t, 0, 0, 2) // older, conflicting
	hit := r.read(t, 0, 0, 1)      // younger, would hit under FR-FCFS
	r.runIdle()
	if !(*conflict < *hit) {
		t.Fatalf("FCFS reordered: conflict at %d, hit at %d", *conflict, *hit)
	}
}
