package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"refsched/internal/config"
	"refsched/internal/metrics"
)

func TestReportContents(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Mix != "smoke" || rep.Density != "8Gb" || rep.Policy != "allbank" {
		t.Fatalf("identity fields: %q %q %q", rep.Mix, rep.Density, rep.Policy)
	}
	if rep.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if rep.RefreshEnergyFrac <= 0 || rep.RefreshEnergyFrac >= 1 {
		t.Fatalf("refresh energy fraction = %v", rep.RefreshEnergyFrac)
	}
	if rep.AvgMemLatencyMemCycles <= 0 ||
		rep.AvgMemLatencyMemCycles*4 != rep.AvgMemLatency {
		t.Fatalf("latency unit conversion: %v vs %v", rep.AvgMemLatencyMemCycles, rep.AvgMemLatency)
	}
	if rep.MeasuredCycles != sys.Window() {
		t.Fatalf("measured cycles = %d, want one window %d", rep.MeasuredCycles, sys.Window())
	}

	s := rep.String()
	for _, want := range []string{"smoke", "hIPC=", "mcf", "povray", "MPKI"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

func TestReportTaskOrdering(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshNone)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tasks {
		if tr.TaskID != i {
			t.Fatalf("task order: %d at position %d", tr.TaskID, i)
		}
	}
	// Mix expansion order: first four mcf, then four povray.
	for i := 0; i < 4; i++ {
		if rep.Tasks[i].Bench != "mcf" || rep.Tasks[i+4].Bench != "povray" {
			t.Fatalf("bench order wrong at %d: %s/%s", i, rep.Tasks[i].Bench, rep.Tasks[i+4].Bench)
		}
	}
}

// TestReportJSONRoundTrip pins the Report wire format: stable
// snake_case keys, lossless round-trip, and agreement between the
// report and the registry snapshot it was projected from.
func TestReportJSONRoundTrip(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"harmonic_ipc"`, `"avg_mem_latency"`, `"refresh_stalled_frac"`,
		`"sched_stats"`, `"eligible_picks"`, `"refresh_mj"`, `"cache_hits"`,
		`"task_id"`, `"llc_misses"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON missing %s", key)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *rep)
	}

	// The cumulative snapshot agrees with the report's cumulative
	// fields: the report is a projection, not a second bookkeeping
	// path.
	snap := sys.MetricsSnapshot()
	if got := snap.Counter("sched.picks"); got != rep.SchedStats.Picks {
		t.Errorf("sched.picks snapshot=%d report=%d", got, rep.SchedStats.Picks)
	}
	if got := snap.Counter("kernel.quanta"); got != rep.TotalQuanta {
		t.Errorf("kernel.quanta snapshot=%d report=%d", got, rep.TotalQuanta)
	}
	var reads uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "mc[") && strings.HasSuffix(name, "].reads") &&
			!strings.Contains(name, ".bank[") {
			reads += v
		}
	}
	// Controller reads are cumulative (warmup + measure) so they bound
	// the measured-interval count from above.
	if reads < rep.Reads {
		t.Errorf("cumulative mc reads %d < measured reads %d", reads, rep.Reads)
	}
}

// TestPolicyCountersRegistered: the counters only a refresh policy
// keeps reach the metrics registry under mc[i].refresh.* for that
// policy alone, and agree with what the controller observes of the
// same decisions.
func TestPolicyCountersRegistered(t *testing.T) {
	run := func(pol config.RefreshPolicy) metrics.Snapshot {
		sys, err := Build(testConfig(config.Density32Gb, pol), testMix(), Options{FootprintScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunWindows(1, 2); err != nil {
			t.Fatal(err)
		}
		return sys.MetricsSnapshot()
	}
	s := run(config.RefreshAllBank)
	for _, name := range []string{"mode_switches", "resumes", "forced_issues", "idle_issues"} {
		if _, ok := s.Counters["mc[0].refresh."+name]; ok {
			t.Errorf("all-bank registers %s, which only another policy keeps", name)
		}
	}
	if s := run(config.RefreshAdaptive); s.Counter("mc[0].refresh.mode_switches") == 0 {
		t.Error("adaptive: no mode switch registered")
	}
	s = run(config.RefreshElastic)
	forced, idle := s.Counter("mc[0].refresh.forced_issues"), s.Counter("mc[0].refresh.idle_issues")
	if cmds := s.Counter("mc[0].refresh_commands"); cmds == 0 || forced+idle != cmds {
		t.Errorf("elastic: %d forced + %d idle issues, controller issued %d commands", forced, idle, cmds)
	}
	s = run(config.RefreshPausing)
	if resumes := s.Counter("mc[0].refresh.resumes"); resumes == 0 || resumes > s.Counter("mc[0].refresh_pauses") {
		t.Errorf("pausing: %d resumes of %d pauses", resumes, s.Counter("mc[0].refresh_pauses"))
	}
}
