package harness

import (
	"reflect"
	"testing"
)

// TestFig10ParallelDeterminism is the parallel runner's core regression
// guarantee: the Figure 10 sweep must produce deep-equal Results — and
// identical per-cell engine event counts — at -j 1 and -j 8. Every cell
// is deterministically seeded and shares no state, so parallelism may
// only change wall-clock time, never output.
func TestFig10ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	p := QuickParams()

	// Raw reports first: compare every metric and the executed event
	// count per (mix, density, bundle) cell.
	p.Parallelism = 1
	serialReps, sFailed, err := p.mainResults(false)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	parallelReps, pFailed, err := p.mainResults(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sFailed) != 0 || len(pFailed) != 0 {
		t.Fatalf("unexpected quarantined cells: %v / %v", sFailed, pFailed)
	}
	if len(serialReps) != len(parallelReps) {
		t.Fatalf("cell counts differ: %d serial vs %d parallel", len(serialReps), len(parallelReps))
	}
	for k, sr := range serialReps {
		pr, ok := parallelReps[k]
		if !ok {
			t.Fatalf("cell %s missing from parallel run", k)
		}
		if sr.Events != pr.Events {
			t.Errorf("cell %s: executed events %d serial vs %d parallel", k, sr.Events, pr.Events)
		}
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("cell %s: reports differ between -j 1 and -j 8", k)
		}
	}

	// Rendered figures second: the tables the user sees must be
	// byte-identical.
	p.Parallelism = 1
	s10, s11, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	p10, p11, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s10, p10) {
		t.Errorf("fig10 differs:\nserial:\n%s\nparallel:\n%s", s10, p10)
	}
	if !reflect.DeepEqual(s11, p11) {
		t.Errorf("fig11 differs:\nserial:\n%s\nparallel:\n%s", s11, p11)
	}
	if s10.String() != p10.String() {
		t.Error("fig10 rendered output is not byte-identical")
	}
}

// TestFig5ParallelDeterminism covers fig5's fail-fast batch (allocator
// sweep, no sim engine): parallel and serial output must match exactly.
func TestFig5ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("allocator sweeps are slow")
	}
	p := tinyParams()
	p.Parallelism = 1
	serial, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	parallel, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("fig5 output differs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
