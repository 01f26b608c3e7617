package mc

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/sim"
)

// TestPausingAbortsRefreshForDemand: with the pausing policy, a demand
// read arriving mid-refresh completes far sooner than tRFC, and the
// controller records the pause.
func TestPausingAbortsRefreshForDemand(t *testing.T) {
	r := newRig(t, config.RefreshPausing)
	interval := r.interval()
	r.eng.RunUntil(interval + 1) // first refresh in flight on rank 0

	done := r.read(t, 0, 0, 1)
	r.eng.RunUntil(interval + sim.Time(r.tm.TRFCab+100000))

	if r.mc.Stats.RefreshPauses == 0 {
		t.Fatal("refresh never paused")
	}
	// Without pausing the read waits out tRFCab (~2848 cycles); with
	// pausing it pays only ~tRP + the normal access.
	fullWait := interval + sim.Time(r.tm.TRFCab)
	if *done >= fullWait {
		t.Fatalf("paused read done at %d, no better than unpaused %d", *done, fullWait)
	}
	if r.mc.Stats.RefreshStalledReads != 0 {
		t.Fatal("paused read still counted as refresh-stalled")
	}
}

// TestPausingRemainderEventuallyRuns: the aborted remainder is
// rescheduled, so total refresh busy time is preserved (minus overlap).
func TestPausingRemainderEventuallyRuns(t *testing.T) {
	r := newRig(t, config.RefreshPausing)
	interval := r.interval()
	r.eng.RunUntil(interval + 1)
	_ = r.read(t, 0, 0, 1)
	// Run several intervals with no further traffic: the remainder must
	// have been issued as a refresh command.
	r.eng.RunUntil(interval * 6)
	// Commands: initial + remainder resume (+ later scheduled ones).
	if r.mc.Stats.RefreshCommands < 3 {
		t.Fatalf("refresh commands = %d, expected initial+resume+next", r.mc.Stats.RefreshCommands)
	}
}

// TestElasticSkipsWhileLoaded: with a saturated read queue the elastic
// policy defers refreshes (skips), unlike plain all-bank.
func TestElasticSkipsWhileLoaded(t *testing.T) {
	r := newRig(t, config.RefreshElastic)
	// Saturate bank 0 with reads so rank 0 never looks idle: each
	// completion re-submits an identical read to keep the queue occupied.
	for i := 0; i < 32; i++ {
		coord := dram.Coord{Rank: 0, Bank: 0, Row: uint64(i)}
		var id uint64
		id = r.miss(func(sim.Time) {
			r.mc.SubmitRead(&Request{Coord: coord, Owner: Owner{Valid: true, Miss: id}})
		})
		r.mc.SubmitRead(&Request{Coord: coord, Owner: Owner{Valid: true, Miss: id}})
	}
	r.eng.RunUntil(sim.Time(r.tm.TREFIab * 4))
	if r.mc.Stats.RefreshSkipped == 0 {
		t.Fatal("elastic never deferred under load")
	}
}
