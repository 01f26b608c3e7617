package harness

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFig10ParallelDeterminism is the parallel runner's core regression
// guarantee: the Figure 10 sweep must produce deep-equal Results — and
// identical per-cell engine event counts — at -j 1 and -j 8. Every cell
// is deterministically seeded and shares no state, so parallelism may
// only change wall-clock time, never output. Each run simulates under
// its own CellStore, so no run is answered from another's reports.
func TestFig10ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	p := QuickParams()

	// Raw reports first: compare every metric and the executed event
	// count per (mix, density, bundle) cell.
	p.Parallelism = 1
	p.Store = &CellStore{}
	serialReps, sFailed, err := p.mainResults(false)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	p.Store = &CellStore{}
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
		if sr == pr {
			t.Fatalf("cell %s: the parallel run returned the serial run's report", k)
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
	p.Store = &CellStore{}
	serial, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	p.Store = &CellStore{}
	parallel, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig10/fig11 differ:\nserial:\n%s\nparallel:\n%s", Render(serial), Render(parallel))
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
	serial, err := fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	parallel, err := fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := Render(serial), Render(parallel); !bytes.Equal(a, b) {
		t.Errorf("fig5 output differs:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}
