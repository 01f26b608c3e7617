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

// countRuns returns a CellRunner that adds the number of cells each
// sweep hands it to *ran: the cells its memo could not answer.
func countRuns(ran *int) CellRunner {
	return func(ctx context.Context, _ string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		*ran += len(jobs)
		return runner.RunBatch(ctx, jobs, opts)
	}
}

// TestCellStoreResumesPreemptedCell walks one cell of each kind a
// figure runs — a policy bundle, a bank-confined fig4 cell, an ext1
// comparator and its subarray-level refresh, and fig15 machines —
// through the store's three outcomes: a run preempted at its second
// checkpoint boundary leaves its snapshot under the spec's Key; the
// next run resumes that snapshot to a report byte-identical to an
// undisturbed run; a third run is answered from the memo without
// computing.
func TestCellStoreResumesPreemptedCell(t *testing.T) {
	for _, bundle := range []string{
		"codesign", "confine1", "pausing", "perbank-salp8",
		"codesign@4cores-1:4", "allbank@2cores-1:4-2dimm",
	} {
		bundle := bundle
		t.Run(bundle, func(t *testing.T) {
			p := tinyParams()
			p.Parallelism = 1
			p.Store = &CellStore{}
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
			boundaries, ran := 0, 0
			p.CellRunner = countRuns(&ran)
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
			if ran != 2 || boundaries != polled {
				t.Fatalf("third run computed instead of answering from the memo (%d runs)", ran)
			}
			if got, _ := json.Marshal(again); string(got) != string(want) {
				t.Fatal("the memo answered with a different report")
			}
		})
	}
}

// TestCellStoreConcurrentUse drives one store and its journaled memo
// from several goroutines at once, as a daemon's concurrent jobs do.
func TestCellStoreConcurrentUse(t *testing.T) {
	var resumes atomic.Uint64
	path := filepath.Join(t.TempDir(), "results.json")
	store := openStore(t, path)
	store.Resumes = &resumes
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
				if i%10 != 0 {
					continue // an fsync per Put: ten per worker suffice
				}
				store.memo().Put(key, ReportBody(&core.Report{Events: uint64(i)}))
				if rep := store.memo().report(key); rep == nil || rep.Events != uint64(i) {
					t.Errorf("%s: recorded report not found", key)
				}
			}
		}(fmt.Sprint("cell", g))
	}
	wg.Wait()
	if got := resumes.Load(); got != workers*rounds {
		t.Fatalf("resumes = %d, want %d", got, workers*rounds)
	}
	if err := store.Memo.Err(); err != nil {
		t.Fatal(err)
	}
	if n := loggedCells(t, path); n != workers {
		t.Fatalf("the log holds %d results, want %d", n, workers)
	}
}

// resetProcessStore empties the process-wide store, so a test starts
// with no cell answered from the figures an earlier test rendered.
func resetProcessStore() {
	processStore.mu.Lock()
	defer processStore.mu.Unlock()
	processStore.snaps, processStore.Memo = nil, nil
}

// TestCellStoreReusesCellsAcrossFigures: sweeps run without a Store
// share the process-wide one, so a figure reuses the cells an earlier
// figure simulated. Fig10's all-bank and per-bank cells are Fig3's
// 64 ms cells: they are answered from the memo without reaching the
// CellRunner, only Fig10's co-design cells are simulated, and Fig10 and
// Fig11 render the bytes of a run under a store of its own.
func TestCellStoreReusesCellsAcrossFigures(t *testing.T) {
	resetProcessStore()
	t.Cleanup(resetProcessStore)
	p := tinyParams()
	got := map[string]map[string]bool{} // figure → keys of the cells it ran
	p.CellRunner = func(ctx context.Context, figID string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		got[figID] = map[string]bool{}
		for _, j := range jobs {
			got[figID][p.Spec(j.Cell).Key()] = true
		}
		return runner.RunBatch(ctx, jobs, opts)
	}
	if _, err := fig3(p); err != nil {
		t.Fatal(err)
	}
	stored := processStore.memo().Stats().Entries
	if stored != len(got["fig3"]) {
		t.Fatalf("the memo holds %d results after fig3's %d cells", stored, len(got["fig3"]))
	}
	rs, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}

	shared := 0
	for _, key := range fig10Keys(p) {
		switch {
		case got["fig3"][key] && got["fig10"][key]:
			t.Errorf("%s: fig10 simulated a cell fig3 already ran", key)
		case got["fig3"][key]:
			shared++
		case !got["fig10"][key]:
			t.Errorf("%s: fig10 neither simulated the cell nor had it from fig3", key)
		}
	}
	// WL-6 × {16, 24, 32 Gb} × {allbank, perbank} shared; × codesign fresh.
	if fresh := len(got["fig10"]); shared != 6 || fresh != 3 {
		t.Fatalf("fig10 shared %d cells with fig3 and ran %d fresh, want 6 and 3", shared, fresh)
	}
	if n := processStore.memo().Stats().Entries; n != stored+3 {
		t.Fatalf("the memo holds %d results after fig10, want %d", n, stored+3)
	}

	own := tinyParams()
	own.Store = &CellStore{}
	owned, err := fig10(own)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := Render(rs), Render(owned); !bytes.Equal(a, b) {
		t.Errorf("fig10/fig11 after fig3 differ from a run under its own store:\n%s\nown store:\n%s", a, b)
	}
}

// TestCellStoreDropsOldestPastCap: a store's memo keeps the reports
// that fit its byte budget. One result more drops the least recently
// used, whose cell the next run simulates again to the same bytes,
// while a cell still held is answered without computing.
func TestCellStoreDropsOldestPastCap(t *testing.T) {
	p := tinyParams()
	size := int64(0)
	want := map[string][]byte{}
	for _, b := range []string{"allbank", "perbank"} {
		p.Store = &CellStore{}
		rep, err := RunCell(p, "WL-6", "32Gb", b, false)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := p.Cell("WL-6", "32Gb", b, false)
		want[b] = ReportBody(rep)
		size += entrySize(spec.Key(), want[b])
	}

	ran := 0
	p.CellRunner = countRuns(&ran)
	memo := NewMemo(size) // room for exactly the two cells
	p.Store = &CellStore{Memo: memo}
	for _, b := range []string{"allbank", "perbank", "allbank"} {
		if _, err := RunCell(p, "WL-6", "32Gb", b, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := memo.Stats(); ran != 2 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("within the budget: %d runs, %d results held, %d evicted; want 2, 2, 0", ran, st.Entries, st.Evictions)
	}

	// allbank was asked last, so one byte past the budget drops perbank.
	memo.Put("x", nil)
	if _, err := RunCell(p, "WL-6", "32Gb", "allbank", false); err != nil || ran != 2 {
		t.Fatalf("a held cell was computed past the budget (err %v, %d runs)", err, ran)
	}
	rep, err := RunCell(p, "WL-6", "32Gb", "perbank", false)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("%d runs, want the dropped cell simulated again", ran)
	}
	if !bytes.Equal(ReportBody(rep), want["perbank"]) {
		t.Fatal("the dropped cell simulated again to different bytes")
	}
}

// TestCellStoreReopenedLogAnswersFig10: a memo reopened on the log of
// a finished fig10 run answers every fig10 cell without computing it,
// and Fig10 rendered through such a memo prints the bytes of the run
// that wrote the log and appends nothing to it.
func TestCellStoreReopenedLogAnswersFig10(t *testing.T) {
	p := tinyParams()
	p.Parallelism = 4
	path := filepath.Join(t.TempDir(), "cells.json")
	p.Store = openStore(t, path)
	clean, err := fig10(p)
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
		if _, err := reopened.Memo.Answer(key, func() (*core.Report, error) {
			return nil, errors.New("computed instead of answered from the log")
		}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}

	ran := 0
	p.CellRunner = countRuns(&ran)
	p.Store = openStore(t, path)
	rs, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("fig10 over its log simulated %d cells", ran)
	}
	if a, b := Render(rs), Render(clean); !bytes.Equal(a, b) {
		t.Errorf("fig10/fig11 from the log differ from the run that wrote it:\n%s\nclean:\n%s", a, b)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, logged) {
		t.Fatalf("rendering fig10 from its log changed the log (err %v)", err)
	}
}

// TestCellStoreLogsApproxCells: an approx cell answered through a store
// with a log is on record there, so a memo reopened on the log answers
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
	got, err := openStore(t, path).Memo.Answer(spec.Key(), func() (*core.Report, error) {
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

// TestCellStoreFailedAppendFailsRun: a result the memo cannot append
// to its log is still kept and served, so the sweep renders in full,
// but Err names the log file, which is what makes the CLIs exit 3; and
// no append follows the failed one, so a damaged log ends in at most
// one torn record.
func TestCellStoreFailedAppendFailsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing-dir")
	path := filepath.Join(dir, "cells.json")
	memo, _, err := OpenMemo(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.Mode = ModeApprox
	p.Store = &CellStore{Memo: memo}
	if _, err := RunCell(p, "WL-6", "32Gb", "codesign", false); err != nil {
		t.Fatalf("a failed append failed the cell: %v", err)
	}
	first := memo.Err()
	if first == nil || !strings.Contains(first.Error(), path) {
		t.Fatalf("Err() = %v, want a failure naming %s", first, path)
	}

	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rs, err := fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Failed) != 0 {
		t.Fatalf("fig10 quarantined cells after a failed append:\n%s", rs[0])
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a result was appended after the failed append (stat err %v)", err)
	}
	if memo.Err() != first {
		t.Fatalf("Err() changed from %v to %v", first, memo.Err())
	}
	if n := memo.Stats().Entries; n != len(fig10Keys(p)) {
		t.Fatalf("the memo holds %d results, want fig10's %d", n, len(fig10Keys(p)))
	}
}
