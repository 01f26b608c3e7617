package metrics

import (
	"encoding/json"
	"reflect"
	"testing"

	"refsched/internal/stats"
)

func TestCounterPtrReadsLiveField(t *testing.T) {
	reg := NewRegistry()
	var v uint64
	reg.Root().Sub("mc[0]").CounterPtr("reads", &v)
	v = 7
	if got := reg.Snapshot().Counter("mc[0].reads"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	v += 5
	if got := reg.Snapshot().Counter("mc[0].reads"); got != 12 {
		t.Fatalf("counter after increment = %d, want 12", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	var v uint64
	reg.Root().CounterPtr("x", &v)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	reg.Root().CounterPtr("x", &v)
}

func TestSnapshotDiff(t *testing.T) {
	reg := NewRegistry()
	var v uint64 = 100
	g := 3.0
	h := stats.NewHistogram(10, 4)
	reg.Root().CounterPtr("c", &v)
	reg.Root().GaugeFunc("g", func() float64 { return g })
	reg.Root().Histogram("h", h)

	h.Add(5)
	base := reg.Snapshot()
	v += 42
	g = 9.5
	h.Add(15)
	h.Add(1000) // overflow bucket
	d := reg.Snapshot().Diff(base)

	if got := d.Counter("c"); got != 42 {
		t.Errorf("diffed counter = %d, want 42", got)
	}
	if got := d.Gauge("g"); got != 9.5 {
		t.Errorf("diffed gauge = %g, want end value 9.5", got)
	}
	hd := d.Histogram("h")
	if hd.Count != 2 || hd.Sum != 1015 || hd.Over != 1 {
		t.Errorf("diffed histogram = %+v, want count=2 sum=1015 over=1", hd)
	}
	if hd.Counts[0] != 0 || hd.Counts[1] != 1 {
		t.Errorf("diffed buckets = %v, want [0 1 0 0]", hd.Counts)
	}
	if hd.Max != 1000 {
		t.Errorf("diffed max = %d, want end value 1000", hd.Max)
	}
}

func TestSnapshotDropsNonFiniteGauges(t *testing.T) {
	reg := NewRegistry()
	bad := 0.0
	reg.Root().GaugeFunc("ratio", func() float64 { return bad / bad }) // NaN
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["ratio"]; ok {
		t.Fatal("NaN gauge should be dropped from the snapshot")
	}
}

func TestStructRegistration(t *testing.T) {
	type bankStats struct {
		Reads             uint64
		CPUCycles         uint64
		LLCMisses         uint64
		RefreshBusyCycles uint64
		skipMe            uint64 // exercises the unexported-skip path
		Ratio             float64
	}
	reg := NewRegistry()
	var st bankStats
	_ = st.skipMe
	reg.Root().Sub("bank[2]").Struct(&st)
	st.Reads = 1
	st.CPUCycles = 2
	st.LLCMisses = 3
	st.RefreshBusyCycles = 4
	snap := reg.Snapshot()
	want := map[string]uint64{
		"bank[2].reads":               1,
		"bank[2].cpu_cycles":          2,
		"bank[2].llc_misses":          3,
		"bank[2].refresh_busy_cycles": 4,
	}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Fatalf("counters = %v, want %v", snap.Counters, want)
	}
}

func TestStructRejectsNonStructAndEmpty(t *testing.T) {
	reg := NewRegistry()
	for name, p := range map[string]any{
		"non-pointer":      struct{ X uint64 }{},
		"no-uint64-fields": &struct{ X float64 }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			reg.Root().Struct(p)
		}()
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Reads":             "reads",
		"RowHits":           "row_hits",
		"CPUCycles":         "cpu_cycles",
		"LLCMisses":         "llc_misses",
		"RefreshBusyCycles": "refresh_busy_cycles",
		"IdleQuanta":        "idle_quanta",
		"X":                 "x",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var v uint64 = 11
	h := stats.NewHistogram(2, 3)
	h.Add(3)
	reg.Root().Sub("mc[0]").CounterPtr("reads", &v)
	reg.Root().GaugeFunc("depth", func() float64 { return 2.5 })
	reg.Root().Histogram("lat", h)

	snap := reg.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
}
