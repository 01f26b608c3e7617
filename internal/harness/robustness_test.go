package harness

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"refsched/internal/chaos"
	"refsched/internal/journal"
)

// fig10Keys lists the CellSpec keys of the cells of a fig10 sweep.
func fig10Keys(p Params) []string {
	var keys []string
	for _, mix := range p.mixes() {
		for _, d := range mainDensities {
			for _, b := range []bundle{bundleAllBank, bundlePerBank, bundleCoDesign} {
				keys = append(keys, p.Spec(p.cell(mix, d, b, false)).Key())
			}
		}
	}
	return keys
}

// fig10ChaosKeys reproduces the chaos keys runCells derives for the
// tiny fig10 sweep, so tests can pick injector seeds that definitely
// fault (or spare) specific cells.
func fig10ChaosKeys(p Params) []string {
	keys := fig10Keys(p)
	for i, k := range keys {
		keys[i] = "fig10|" + k
	}
	return keys
}

// openStore returns a CellStore on a memo logged at path, closed when
// the test ends.
func openStore(t *testing.T, path string) *CellStore {
	t.Helper()
	m, _, err := OpenMemo(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Error(err)
		}
	})
	return &CellStore{Memo: m}
}

// loggedCells counts the results on record in the memo log at path.
func loggedCells(t *testing.T, path string) int {
	t.Helper()
	_, entries, _, err := journal.Open(path, resultFormat)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// chaosSeedFaulting returns an injector seed whose fault placement hits
// at least min of the sweep's cells at the given fraction.
func chaosSeedFaulting(t *testing.T, keys []string, frac float64, mode chaos.Mode, min int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		in := chaos.New(chaos.Config{Seed: seed, Frac: frac, Mode: mode})
		n := 0
		for _, k := range keys {
			if _, ok := in.Faulted(k); ok {
				n++
			}
		}
		if n >= min && n < len(keys) {
			return seed
		}
	}
	t.Fatal("no chaos seed found — injector hash broken?")
	return 0
}

// TestFig10ChaosQuarantine is the headline robustness acceptance: a
// fig10 sweep with ~20% permanently-failing cells must still complete,
// list the quarantined cells in its failure-summary table, and keep
// every healthy row correct. The sweep runs over a memo that already
// holds every fig10 cell, and the faulted cells fail all the same.
func TestFig10ChaosQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	p := tinyParams()
	p.Store = &CellStore{}
	if _, err := fig10(p); err != nil {
		t.Fatal(err)
	}
	keys := fig10ChaosKeys(p)
	seed := chaosSeedFaulting(t, keys, 0.2, chaos.ModeError, 1)

	p.Chaos = chaos.New(chaos.Config{Seed: seed, Frac: 0.2, Mode: chaos.ModeError})
	rs, err := fig10(p)
	if err != nil {
		t.Fatalf("chaos must quarantine, not abort: %v", err)
	}
	r10 := rs[0]
	faulted := 0
	for _, k := range keys {
		if _, ok := p.Chaos.Faulted(k); ok {
			faulted++
		}
	}
	if len(r10.Failed) != faulted {
		t.Fatalf("%d cells quarantined, want the %d chaos faults", len(r10.Failed), faulted)
	}
	out := r10.String()
	if !strings.Contains(out, "quarantined") {
		t.Errorf("rendered output missing the failure-summary table:\n%s", out)
	}
	for _, ce := range r10.Failed {
		if !strings.Contains(out, ce.Cell.Mix) || !strings.Contains(out, ce.Cell.Bundle) {
			t.Errorf("failure summary does not identify cell %s:\n%s", ce.Cell, out)
		}
		var ie *chaos.InjectedError
		if !errors.As(ce.Err, &ie) {
			t.Errorf("quarantined error lost its typed cause: %v", ce.Err)
		}
	}

}

// TestFig10JournalResumeByteIdentical is the resume acceptance: an
// interrupted run on a logged store (here: cells knocked out by
// permanent chaos stand in for a mid-run kill — either way they are
// simply absent from the log) is finished by a rerun on a fresh store
// opened on the same file, whose rendered tables are byte-identical to
// an uninterrupted serial run. Each pass runs under a store of its own,
// so a rerun's cells come from the log or are simulated again, never
// from the clean run's reports.
func TestFig10JournalResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	p := tinyParams()
	p.Parallelism = 1
	p.Store = &CellStore{}
	clean, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cells.json")
	keys := fig10Keys(p)
	seed := chaosSeedFaulting(t, fig10ChaosKeys(p), 0.3, chaos.ModeError, 2)

	// Pass 1: a logged run with some cells failing permanently; their
	// reports never reach the log.
	p1 := p
	p1.Parallelism = 4
	p1.Store = openStore(t, path)
	p1.Chaos = chaos.New(chaos.Config{Seed: seed, Frac: 0.3, Mode: chaos.ModeError})
	rs, err := fig10(p1)
	if err != nil {
		t.Fatal(err)
	}
	missing := len(rs[0].Failed)
	if missing == 0 {
		t.Fatal("pass 1 quarantined nothing — test vacuous")
	}

	// The log holds exactly the healthy cells.
	if n := loggedCells(t, path); n != len(keys)-missing {
		t.Fatalf("the log has %d cells, want %d", n, len(keys)-missing)
	}

	// Pass 2: a fresh store on the same file, without chaos. The missing
	// cells run and join the log; the rendered tables must be
	// byte-identical to the clean serial run.
	p2 := p
	p2.Parallelism = 4
	p2.Store = openStore(t, path)
	resumed, err := fig10(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed[0].Failed) != 0 {
		t.Fatalf("resume still quarantined cells: %v", resumed[0].Failed)
	}
	if a, b := Render(clean), Render(resumed); !bytes.Equal(a, b) {
		t.Errorf("resumed fig10/fig11 not byte-identical:\nclean:\n%s\nresumed:\n%s", a, b)
	}
	if n := loggedCells(t, path); n != len(keys) {
		t.Fatalf("after the resume the log has %d cells, want %d", n, len(keys))
	}
}

// TestFig10CancelledContext: a cancelled sweep reports the cancellation
// instead of returning partial tables, so callers can surface the
// resume hint.
func TestFig10CancelledContext(t *testing.T) {
	p := tinyParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	_, err := fig10(p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFig5HonoursContexts: fig5's allocator sweep stops like every
// other figure — a cancelled Ctx skips its cells, a cancelled HardCtx
// aborts them between densities — and returns the context error
// instead of the full table.
func TestFig5HonoursContexts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, set := range map[string]func(*Params){
		"Ctx":     func(p *Params) { p.Ctx = ctx },
		"HardCtx": func(p *Params) { p.HardCtx = ctx },
	} {
		set := set
		t.Run(name, func(t *testing.T) {
			p := tinyParams()
			set(&p)
			if rs, err := fig5(p); !errors.Is(err, context.Canceled) {
				t.Fatalf("fig5 returned a table: %t, err %v; want context.Canceled", rs != nil, err)
			}
		})
	}
}

// TestFingerprintCoversResultKnobs: any parameter that changes a cell's
// simulated result must change the fingerprint every cell key ends
// with, or a logged store could answer a cell with a stale report.
func TestFingerprintCoversResultKnobs(t *testing.T) {
	base := tinyParams()
	mutations := map[string]func(*Params){
		"Scale":          func(p *Params) { p.Scale *= 2 },
		"FootprintScale": func(p *Params) { p.FootprintScale *= 2 },
		"WarmupWindows":  func(p *Params) { p.WarmupWindows++ },
		"MeasureWindows": func(p *Params) { p.MeasureWindows++ },
		"Seed":           func(p *Params) { p.Seed++ },
	}
	for name, mutate := range mutations {
		q := base
		mutate(&q)
		if q.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing %s does not change the fingerprint", name)
		}
	}
}

// TestFig4HardCtxAbortsConfinementCells: a hard-cancelled fig4 sweep
// fails every cell with the context error, the custom bank-mask
// confinement cells as well as the all-bank baselines, each error
// naming its cell, even when its memo holds every cell.
func TestFig4HardCtxAbortsConfinementCells(t *testing.T) {
	p := tinyParams() // Mixes = WL-6
	p.Store = &CellStore{}
	if _, err := fig4(p); err != nil { // the memo holds every cell
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.HardCtx = ctx
	rs, err := fig4(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	// 4 densities × (1 baseline + 4 confinement cells).
	if len(r.Failed) != 20 {
		t.Fatalf("%d cells failed, want all 20:\n%s", len(r.Failed), r)
	}
	for _, f := range r.Failed {
		if !errors.Is(f, context.Canceled) {
			t.Errorf("cell %s failed with %v, want context.Canceled in the chain", f.Cell, f.Err)
		}
		if !strings.Contains(f.Err.Error(), "WL-6/"+f.Cell.Density) {
			t.Errorf("cell %s error %q does not name its mix and density", f.Cell, f.Err)
		}
	}
}

// TestEmptyMeanRendersDash: a figure column whose cells were all
// quarantined renders "-", not a mean no cell produced. The analytical
// tier covers neither the related-work and subarray policies of ext1
// nor the FGR modes of fig12.
func TestEmptyMeanRendersDash(t *testing.T) {
	p := QuickParams()
	p.Mode = ModeApprox
	rs, err := ext1(p)
	if err != nil {
		t.Fatal(err)
	}
	ext := rs[0]
	uncovered := map[string]bool{"elastic": true, "pausing": true, "raidr": true, "perbank-salp8": true}
	for _, row := range ext.Table.Rows {
		for _, v := range row[1:] {
			if uncovered[row[0]] != (v == "-") {
				t.Errorf("ext1 row %v: %q", row, v)
			}
		}
	}
	if rs, err = fig12.run(p); err != nil {
		t.Fatal(err)
	}
	if got := rs[0].Table.Rows[len(rs[0].Table.Rows)-1]; !reflect.DeepEqual(got, []string{"average", "-", "-", "-"}) {
		t.Errorf("fig12 average row = %q, want every column -", got)
	}
}
