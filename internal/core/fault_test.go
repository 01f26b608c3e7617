package core

import (
	"errors"
	"strings"
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

// plant schedules fn as an event at cycle t: a KindNone payload, which
// the system never schedules, routed to fn ahead of the system's own
// dispatcher.
func plant(sys *System, t sim.Time, fn func()) {
	sys.Eng.SetExec(func(p sim.Payload) {
		if p.Kind == sim.KindNone {
			fn()
			return
		}
		sys.execPayload(p)
	})
	sys.Eng.SchedulePAt(t, sim.Payload{})
}

// TestRunConvertsSimFaultToError exercises the run boundary's error
// taxonomy: a typed sim.Fault unwinding out of the event loop must come
// back as a returned error tagged with the cell identity — never as a
// process-killing panic — so the sweep pipeline can quarantine the cell.
func TestRunConvertsSimFaultToError(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a component bookkeeping bug: an event that schedules into
	// the past once the clock reaches cycle 10.
	plant(sys, 10, func() {
		sys.Eng.SchedulePAt(5, sim.Payload{})
	})
	rep, err := sys.RunWindows(1, 1)
	if err == nil {
		t.Fatal("Run swallowed a simulation fault")
	}
	if rep != nil {
		t.Error("faulted run must not return a report")
	}
	var f *sim.PastEventError
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *sim.PastEventError in chain", err)
	}
	if f.T != 5 || f.Now != 10 {
		t.Errorf("fault = %+v, want T=5 Now=10", f)
	}
	// The error names the cell so a quarantine line is self-describing.
	for _, want := range []string{"smoke", "8Gb", "allbank", "cycle 10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunRepanicsNonFaultValues: a panic that is not a typed sim.Fault
// is a genuine programmer invariant and must propagate, not be
// laundered into an error.
func TestRunRepanicsNonFaultValues(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	plant(sys, 10, func() { panic("invariant violated") })
	defer func() {
		p := recover()
		if p != "invariant violated" {
			t.Fatalf("recover() = %v, want the original panic value", p)
		}
	}()
	sys.RunWindows(1, 1)
	t.Fatal("non-fault panic was swallowed")
}

// TestRunOnlyOnce: the boundary still enforces the one-shot contract.
func TestRunOnlyOnce(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(1, 1); err == nil {
		t.Fatal("second Run must error")
	}
}
