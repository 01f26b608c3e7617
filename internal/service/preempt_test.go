package service

import (
	"encoding/json"
	"testing"
	"time"

	"refsched/internal/harness"
)

// TestPreemptAndResume is the preemption drill: with one worker busy on
// a low-priority exact cell, a high-priority arrival displaces it at a
// checkpoint boundary; the displaced job requeues with its mid-cell
// snapshot, runs again after the arrival, resumes from the snapshot
// (not from scratch), and its final result is byte-identical to an
// uninterrupted run.
func TestPreemptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second victim cell twice (reference + preempted)")
	}
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Watchdog = WatchdogConfig{Stall: time.Hour}
	})

	// The victim runs at a lower time scale than the test preset so it
	// lasts seconds, leaving a wide window for the preemption to land at
	// one of its checkpoint boundaries.
	victimScale := uint64(256)

	// The reference: the victim cell run uninterrupted, rendered the way
	// execute renders single-cell bodies.
	ref := tinyParams()
	ref.Scale = victimScale
	ref.Parallelism = 1
	rep, err := harness.RunCell(ref, "WL-6", "8Gb", "allbank", false)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	expected := append(raw, '\n')

	_, out := postJob(t, ts, Request{
		Cell:   &CellSpec{Mix: "WL-6", Density: "8Gb", Bundle: "allbank"},
		Params: &ParamOverrides{Scale: &victimScale},
	})
	victimID := out["id"].(string)
	victim := s.getJob(victimID)
	if victim == nil {
		t.Fatal("victim job not found")
	}
	if victim.params.Store == nil {
		t.Fatal("exact job has no snapshot store")
	}

	// Wait until the victim is mid-cell — running and past at least one
	// checkpoint boundary — so the preemption lands where a snapshot can
	// be taken.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, running := victim.progress()
		if running && victim.boundaries.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never observed mid-cell (state %s, %d boundaries)",
				victim.snapshot().State, victim.boundaries.Load())
		}
		time.Sleep(time.Millisecond)
	}

	_, out = postJob(t, ts, Request{
		Cell:     &CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "codesign"},
		Priority: 10,
	})
	urgentID := out["id"].(string)

	// The urgent job finishes first (the preempted one waits behind it),
	// then the victim resumes and completes.
	waitJobState(t, ts, urgentID, JobDone)
	st := waitJobState(t, ts, victimID, JobDone)

	if st.Preemptions < 1 {
		t.Fatalf("victim reports %d preemptions, want >= 1", st.Preemptions)
	}
	state, body, jerr := victim.result()
	if state != JobDone || jerr != nil {
		t.Fatalf("victim finished %s (%v)", state, jerr)
	}
	if string(body) != string(expected) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(body), len(expected))
	}

	stats := s.StatsSnapshot()
	if stats.Resilience.Preemptions < 1 {
		t.Fatalf("stats report %d preemptions, want >= 1", stats.Resilience.Preemptions)
	}
	if stats.Resilience.PreemptResumes < 1 {
		t.Fatalf("stats report %d preempt resumes, want >= 1 (the victim recomputed instead of resuming)", stats.Resilience.PreemptResumes)
	}
}
