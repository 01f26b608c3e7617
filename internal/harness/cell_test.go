package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"refsched/internal/core"
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

// TestCellStoreResumesPreemptedCell walks one cell through the store's
// three outcomes: a run preempted at its second checkpoint boundary
// leaves its snapshot under the spec's Key; the next run resumes that
// snapshot to a report byte-identical to an undisturbed run; a third
// run is answered from the stored report without simulating.
func TestCellStoreResumesPreemptedCell(t *testing.T) {
	p := tinyParams()
	p.Parallelism = 1
	ref, err := RunCell(p, "WL-6", "32Gb", "codesign", false)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.Cell("WL-6", "32Gb", "codesign", false)
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

	if _, err := RunCell(p, "WL-6", "32Gb", "codesign", false); !errors.Is(err, errPreempt) {
		t.Fatalf("first run returned %v, want the preemption", err)
	}
	if p.Store.snaps[spec.Key()] == nil {
		t.Fatalf("preempted run left no snapshot under %q", spec.Key())
	}

	rep, err := RunCell(p, "WL-6", "32Gb", "codesign", false)
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
	again, err := RunCell(p, "WL-6", "32Gb", "codesign", false)
	if err != nil {
		t.Fatal(err)
	}
	if again != rep || boundaries != polled {
		t.Fatal("third run simulated instead of returning the stored report")
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
				store.saveSnapshot(key, &core.SystemState{})
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
