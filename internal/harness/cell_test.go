package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"refsched/internal/core"
	"refsched/internal/runner"
)

// TestCellSpecKeyCoversEveryField: a cell's Key is its identity in
// every cache and store, so changing any one field of the spec must
// change it. The fields are iterated by reflection so that a field
// added later cannot be left out of the key unnoticed.
func TestCellSpecKeyCoversEveryField(t *testing.T) {
	base, err := tinyParams().Cell("WL-6", "32Gb", "codesign", false)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(base)
	for i := 0; i < v.NumField(); i++ {
		mut := base
		f := reflect.ValueOf(&mut).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		default:
			t.Fatalf("CellSpec.%s has kind %s; teach this test to change it",
				v.Type().Field(i).Name, f.Kind())
		}
		if mut.Key() == base.Key() {
			t.Errorf("changing CellSpec.%s does not change Key() %q", v.Type().Field(i).Name, base.Key())
		}
	}
}

// TestCellSpecParamsFingerprint: a spec carries every knob Fingerprint
// covers, so the params it rebuilds fingerprint like the params it was
// made from.
func TestCellSpecParamsFingerprint(t *testing.T) {
	full := Params{Scale: 512, FootprintScale: 0.25, WarmupWindows: 2, MeasureWindows: 3, Seed: 7, Mode: ModeApprox,
		Mixes: []string{"WL-1"}, Parallelism: 3}
	for _, p := range []Params{tinyParams(), full} {
		spec, err := p.Cell("WL-1", "8Gb", "allbank", true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := spec.Params().Fingerprint(), p.Fingerprint(); got != want {
			t.Errorf("spec params fingerprint %q, want %q", got, want)
		}
	}
}

// TestCellSpecKeyIsRequestKey pins Key to the string the serving
// daemon has always cached and deduplicated cell requests under, so
// result caches persisted before CellSpec existed stay warm, and checks
// that every spelling of a density names one cell.
func TestCellSpecKeyIsRequestKey(t *testing.T) {
	p := tinyParams()
	for _, density := range []string{"32Gb", "32", " 32gb"} {
		spec, err := p.Cell("WL-6", density, "codesign", false)
		if err != nil {
			t.Fatal(err)
		}
		const want = "cell|WL-6|32Gb|codesign|hot=false|v4 mode=exact scale=4096 fp=0.01 warm=1 meas=1 seed=1"
		if got := spec.Key(); got != want {
			t.Errorf("density %q: Key() = %q, want %q", density, got, want)
		}
	}
	p.Mode, p.Seed = ModeApprox, 9
	spec, err := p.Cell("WL-1", "8Gb", "allbank", true)
	if err != nil {
		t.Fatal(err)
	}
	const want = "cell|WL-1|8Gb|allbank|hot=true|v4 mode=approx scale=4096 fp=0.01 warm=1 meas=1 seed=9"
	if got := spec.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

// TestCellRejectsBadAddresses: Cell is the one validation of a cell's
// coordinates and mode, shared by RunCell and the daemon.
func TestCellRejectsBadAddresses(t *testing.T) {
	bad := tinyParams()
	bad.Mode = "aprox"
	for _, c := range []struct {
		p                    Params
		mix, density, bundle string
	}{
		{tinyParams(), "WL-99", "32Gb", "codesign"},
		{tinyParams(), "", "32Gb", "codesign"},
		{tinyParams(), "WL-6", "48Gb", "codesign"},
		{tinyParams(), "WL-6", "32Gb", "nope"},
		{bad, "WL-6", "32Gb", "codesign"},
	} {
		if _, err := c.p.Cell(c.mix, c.density, c.bundle, false); err == nil {
			t.Errorf("Cell(%q, %q, %q) with mode %q accepted", c.mix, c.density, c.bundle, c.p.Mode)
		}
	}
}

// TestCellStoreResumesPreemptedCell walks one cell of each kind a
// figure runs — a policy bundle, a bank-confined fig4 cell, an ext1
// comparator and its subarray-level refresh, and fig15 machines —
// through the store's three outcomes: a run preempted at its second
// checkpoint boundary leaves its snapshot under the spec's Key; the
// next run resumes that snapshot to a report byte-identical to an
// undisturbed run; a third run is answered from the stored report
// without simulating.
func TestCellStoreResumesPreemptedCell(t *testing.T) {
	for _, bundle := range []string{
		"codesign", "confine1", "pausing", "perbank-salp8",
		"codesign@4cores-1:4", "allbank@2cores-1:4-2dimm",
	} {
		bundle := bundle
		t.Run(bundle, func(t *testing.T) {
			p := tinyParams()
			p.Parallelism = 1
			ref, err := RunCell(p, "WL-6", "32Gb", bundle, false)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := p.Cell("WL-6", "32Gb", bundle, false)
			if err != nil {
				t.Fatal(err)
			}

			errPreempt := errors.New("preempted")
			var resumes atomic.Uint64
			boundaries := 0
			p.Store = &CellStore{Resumes: &resumes, Preempt: func() error {
				if boundaries++; boundaries == 2 {
					return errPreempt
				}
				return nil
			}}

			if _, err := RunCell(p, "WL-6", "32Gb", bundle, false); !errors.Is(err, errPreempt) {
				t.Fatalf("first run returned %v, want the preemption", err)
			}
			if p.Store.snaps[spec.Key()] == nil {
				t.Fatalf("preempted run left no snapshot under %q", spec.Key())
			}

			rep, err := RunCell(p, "WL-6", "32Gb", bundle, false)
			if err != nil {
				t.Fatal(err)
			}
			if resumes.Load() != 1 {
				t.Fatalf("resumes = %d, want 1", resumes.Load())
			}
			if boundaries <= 2 {
				t.Fatalf("resumed run crossed no checkpoint boundary (%d in all)", boundaries)
			}
			got, _ := json.Marshal(rep)
			want, _ := json.Marshal(ref)
			if string(got) != string(want) {
				t.Fatal("resumed report differs from an undisturbed run")
			}
			if len(p.Store.snaps) != 0 {
				t.Fatalf("a finished cell left %d snapshot(s) behind", len(p.Store.snaps))
			}

			polled := boundaries
			again, err := RunCell(p, "WL-6", "32Gb", bundle, false)
			if err != nil {
				t.Fatal(err)
			}
			if again != rep || boundaries != polled {
				t.Fatal("third run simulated instead of returning the stored report")
			}
		})
	}
}

// TestCellStoreConcurrentUse drives one store from several goroutines
// at once, as a sweep's workers do.
func TestCellStoreConcurrentUse(t *testing.T) {
	var resumes atomic.Uint64
	store := &CellStore{Resumes: &resumes}
	const workers, rounds = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				store.PutSnapshot(key, &core.SystemState{})
				if store.TakeSnapshot(key) == nil {
					t.Errorf("%s: saved snapshot not found", key)
				}
				store.finish(key, &core.Report{})
				if store.report(key) == nil {
					t.Errorf("%s: finished report not found", key)
				}
			}
		}(fmt.Sprint("cell", g))
	}
	wg.Wait()
	if got := resumes.Load(); got != workers*rounds {
		t.Fatalf("resumes = %d, want %d", got, workers*rounds)
	}
}

// resetProcessStore empties the process-wide store, so a test starts
// with no cell answered from the figures an earlier test rendered.
func resetProcessStore() {
	processStore.mu.Lock()
	defer processStore.mu.Unlock()
	processStore.snaps, processStore.reports, processStore.order = nil, nil, nil
}

// TestCellStoreReusesCellsAcrossFigures: sweeps run without a Store
// share the process-wide one, so a figure reuses the cells an earlier
// figure simulated. Fig10's all-bank and per-bank cells are Fig3's
// 64 ms cells: they come back as the very reports Fig3 got, Fig10's
// co-design cells are simulated, and Fig10 and Fig11 render the bytes
// of a run under a store of its own.
func TestCellStoreReusesCellsAcrossFigures(t *testing.T) {
	resetProcessStore()
	t.Cleanup(resetProcessStore)
	p := tinyParams()
	got := map[string]map[string]*core.Report{} // figure → cell key → report
	p.CellRunner = func(ctx context.Context, figID string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		got[figID] = map[string]*core.Report{}
		opts.OnDone = func(_ int, c runner.Cell, rep *core.Report) { got[figID][p.Spec(c).Key()] = rep }
		return runner.RunBatch(ctx, jobs, opts)
	}
	if _, err := Fig3(p); err != nil {
		t.Fatal(err)
	}
	stored := len(processStore.reports)
	if stored != len(got["fig3"]) {
		t.Fatalf("the store holds %d reports after fig3's %d cells", stored, len(got["fig3"]))
	}
	r10, r11, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}

	fig3Reports := map[*core.Report]bool{}
	for _, rep := range got["fig3"] {
		fig3Reports[rep] = true
	}
	shared, fresh := 0, 0
	for key, rep := range got["fig10"] {
		if prev, ok := got["fig3"][key]; ok {
			shared++
			if rep != prev {
				t.Errorf("%s: fig10 simulated a cell fig3 already ran", key)
			}
			continue
		}
		fresh++
		if fig3Reports[rep] {
			t.Errorf("%s: fig10 was answered with a report of another cell", key)
		}
	}
	// WL-6 × {16, 24, 32 Gb} × {allbank, perbank} shared; × codesign fresh.
	if shared != 6 || fresh != 3 {
		t.Fatalf("fig10 shared %d cells with fig3 and ran %d fresh, want 6 and 3", shared, fresh)
	}
	if n := len(processStore.reports); n != stored+fresh {
		t.Fatalf("the store holds %d reports after fig10, want %d", n, stored+fresh)
	}

	own := tinyParams()
	own.Store = &CellStore{}
	o10, o11, err := Fig10(own, false)
	if err != nil {
		t.Fatal(err)
	}
	if r10.String() != o10.String() || r11.String() != o11.String() {
		t.Errorf("fig10/fig11 after fig3 differ from a run under its own store:\n%s%s\nown store:\n%s%s", r10, r11, o10, o11)
	}
}

// TestCellStoreDropsOldestPastCap: the store keeps maxStoredReports
// finished reports. One more drops the oldest, whose cell the next run
// simulates again to the same bytes, and every other report is still
// answered.
func TestCellStoreDropsOldestPastCap(t *testing.T) {
	resetProcessStore()
	t.Cleanup(resetProcessStore)
	p := tinyParams()
	oldest, err := RunCell(p, "WL-6", "32Gb", "allbank", false)
	if err != nil {
		t.Fatal(err)
	}
	next, err := RunCell(p, "WL-6", "32Gb", "perbank", false)
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]*core.Report, maxStoredReports-1)
	for i := range filler[:len(filler)-1] {
		filler[i] = &core.Report{}
		processStore.finish(fmt.Sprint("filler", i), filler[i])
	}

	// At the cap the oldest report is still held.
	if n := len(processStore.reports); n != maxStoredReports {
		t.Fatalf("the store holds %d reports, want %d", n, maxStoredReports)
	}
	if again, err := RunCell(p, "WL-6", "32Gb", "allbank", false); err != nil || again != oldest {
		t.Fatalf("at the cap the oldest cell was not answered from the store (err %v)", err)
	}

	// One past the cap it is dropped, and the rest are kept.
	last := len(filler) - 1
	filler[last] = &core.Report{}
	processStore.finish(fmt.Sprint("filler", last), filler[last])
	if n := len(processStore.reports); n != maxStoredReports {
		t.Fatalf("the store holds %d reports, want %d", n, maxStoredReports)
	}
	if again, err := RunCell(p, "WL-6", "32Gb", "perbank", false); err != nil || again != next {
		t.Fatalf("the second-oldest cell was not answered from the store (err %v)", err)
	}
	for i, rep := range filler {
		if processStore.report(fmt.Sprint("filler", i)) != rep {
			t.Fatalf("filler%d was dropped", i)
		}
	}
	again, err := RunCell(p, "WL-6", "32Gb", "allbank", false)
	if err != nil {
		t.Fatal(err)
	}
	if again == oldest {
		t.Fatal("the oldest report was answered past the cap")
	}
	a, _ := json.Marshal(again)
	o, _ := json.Marshal(oldest)
	if string(a) != string(o) {
		t.Fatal("the dropped cell simulated again to different bytes")
	}
}

// TestCellStoreReopenedLogAnswersFig10: a store reopened on the log of
// a finished fig10 run answers every fig10 cell without computing it,
// and Fig10 rendered through such a store prints the bytes of the run
// that wrote the log and appends nothing to it.
func TestCellStoreReopenedLogAnswersFig10(t *testing.T) {
	p := tinyParams()
	p.Parallelism = 4 // workers append to the log concurrently
	path := filepath.Join(t.TempDir(), "cells.json")
	p.Store = openStore(t, path)
	clean10, clean11, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := fig10Keys(p)
	if n := loggedCells(t, path); n != len(keys) {
		t.Fatalf("the log has %d cells, want fig10's %d", n, len(keys))
	}
	logged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopened := openStore(t, path)
	for _, key := range keys {
		if _, err := reopened.Answer(key, func() (*core.Report, error) {
			return nil, errors.New("computed instead of answered from the log")
		}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}

	p.Store = openStore(t, path)
	r10, r11, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if r10.String() != clean10.String() || r11.String() != clean11.String() {
		t.Errorf("fig10/fig11 from the log differ from the run that wrote it:\n%s%s\nclean:\n%s%s", r10, r11, clean10, clean11)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, logged) {
		t.Fatalf("rendering fig10 from its log changed the log (err %v)", err)
	}
}

// TestCellStoreLogsApproxCells: an approx cell answered through a store
// with a log is on record there, so a store reopened on the log answers
// it with the same report without predicting it again.
func TestCellStoreLogsApproxCells(t *testing.T) {
	p := tinyParams()
	p.Mode = ModeApprox
	path := filepath.Join(t.TempDir(), "cells.json")
	p.Store = openStore(t, path)
	rep, err := RunCell(p, "WL-6", "32Gb", "codesign", false)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.Cell("WL-6", "32Gb", "codesign", false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openStore(t, path).Answer(spec.Key(), func() (*core.Report, error) {
		return nil, errors.New("the approx cell is not on record")
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(rep)
	if string(a) != string(b) {
		t.Fatal("the logged approx report differs from the one the run returned")
	}
}

// TestCellStoreFailedAppendFailsRun: a report the store cannot append
// to its log fails its cell, and so the run, with an error naming the
// log file; it is not served as if it were on record.
func TestCellStoreFailedAppendFailsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "cells.json")
	p := tinyParams()
	p.Mode = ModeApprox
	p.Store = openStore(t, path)
	if _, err := RunCell(p, "WL-6", "32Gb", "codesign", false); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("RunCell err = %v, want a failure naming %s", err, path)
	}
	r10, _, err := Fig10(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fig10Keys(p)); len(r10.Failed) != want {
		t.Fatalf("%d of fig10's %d cells failed, want all:\n%s", len(r10.Failed), want, r10)
	}
	for _, f := range r10.Failed {
		if !strings.Contains(f.Err.Error(), path) {
			t.Errorf("cell %s failed with %v, which does not name %s", f.Cell, f.Err, path)
		}
	}
}
