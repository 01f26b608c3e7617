package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"refsched/internal/config"
)

// assertCancelled checks that a run aborted by its Options.Ctx failed
// with a cell-tagged error wrapping context.Canceled and no report, and
// that it stopped within one cancel-poll leg of cycle from.
func assertCancelled(t *testing.T, sys *System, rep *Report, err error, from uint64) {
	t.Helper()
	if err == nil {
		t.Fatal("run completed despite a cancelled hard context")
	}
	if rep != nil {
		t.Error("cancelled run must not return a report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	if tag := "core: " + sys.Mix.Name + "/"; !strings.HasPrefix(err.Error(), tag) {
		t.Errorf("err = %q, want it tagged with the cell (%q...)", err, tag)
	}
	if now := uint64(sys.Eng.Now()); now < from || now-from > cancelCheckCycles {
		t.Errorf("stopped at cycle %d, want within %d cycles after %d", now, cancelCheckCycles, from)
	}
}

// TestRunAbortsOnCancelledContext: Options.Ctx hard-cancels a running
// simulation — the run loop's leg-boundary poll converts the context
// error into a cell-tagged returned error, never a crash, and errors.Is
// still sees the context error through the chain.
func TestRunAbortsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // aborts at the first poll

	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	// Enough windows that the run crosses at least one poll boundary
	// (window ≈ 100k cycles at scale 2048).
	rep, err := sys.RunWindows(1, 4)
	assertCancelled(t, sys, rep, err, 0)
}

// TestResumeAbortsOnCancelledContext: a restored system honours its
// Options.Ctx exactly like a freshly built one.
func TestResumeAbortsOnCancelledContext(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.TREFW()
	var snap *SystemState
	if _, err := sys.RunCheckpointed(w, 4*w, w/2, eager(func(st *SystemState) error {
		if snap == nil {
			snap = st
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rsys, err := Restore(snap, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rsys.Resume(0, nil)
	assertCancelled(t, rsys, rep, err, snap.Cycle())
}

// TestBoundaryCancelStopsWithinPollBound: a checkpoint boundary that
// cancels the context (and returns nil, so the run itself is not
// aborted by the callback) stops the run at the next cancel poll, even
// when the checkpoint cadence is far coarser than the poll bound.
func TestBoundaryCancelStopsWithinPollBound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	every := uint64(3*cancelCheckCycles + 1001)
	var boundary uint64
	w := cfg.TREFW()
	rep, err := sys.RunCheckpointed(w, 8*w, every, func(func() (*SystemState, error)) error {
		if boundary == 0 {
			boundary = uint64(sys.Eng.Now())
			cancel()
		}
		return nil
	})
	if boundary != every {
		t.Fatalf("first boundary at cycle %d, want %d", boundary, every)
	}
	assertCancelled(t, sys, rep, err, boundary)
}

// TestRunCompletesWithLiveContext: a live Options.Ctx splits the run
// into poll legs but changes nothing about a healthy run's result.
func TestRunCompletesWithLiveContext(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)

	plain, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	guarded, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := guarded.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("installing a live cancellation context changed the simulated result")
	}
}
