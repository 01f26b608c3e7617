package core

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/kernel/buddy"
	"refsched/internal/workload"
)

// TestDeterminism: identical configs and seeds produce bit-identical
// reports.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := testConfig(config.Density8Gb, config.RefreshPerBankRR)
		sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWindows(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.HarmonicIPC != b.HarmonicIPC || a.Reads != b.Reads || a.AvgMemLatency != b.AvgMemLatency {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.HarmonicIPC, a.Reads, b.HarmonicIPC, b.Reads)
	}
	for i := range a.Tasks {
		if a.Tasks[i].Instructions != b.Tasks[i].Instructions {
			t.Fatalf("task %d instruction counts differ", i)
		}
	}
}

// TestSeedSensitivity: different seeds actually change the run.
func TestSeedSensitivity(t *testing.T) {
	run := func(seed uint64) *Report {
		cfg := testConfig(config.Density8Gb, config.RefreshPerBankRR)
		sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunWindows(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if run(1).Reads == run(999).Reads {
		t.Log("warning: different seeds produced identical read counts (possible but unlikely)")
	}
}

// TestRefreshCompleteness: under every refreshing policy, each bank
// receives at least its full row budget per elapsed retention window.
func TestRefreshCompleteness(t *testing.T) {
	for _, pol := range []config.RefreshPolicy{
		config.RefreshAllBank, config.RefreshPerBankRR,
		config.RefreshPerBankSeq, config.RefreshOOOPerBank,
		config.RefreshFGR2x, config.RefreshFGR4x,
	} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			cfg := testConfig(config.Density8Gb, pol)
			sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			const windows = 3
			if _, err := sys.RunWindows(0, windows); err != nil {
				t.Fatal(err)
			}
			rowsPerBank := cfg.Mem.RowsPerBank()
			// Aggregate per-channel; banks are symmetric under these
			// policies, so the per-bank budget is the mean.
			for _, ch := range sys.Chans {
				st := ch.Stats()
				// Allow the in-flight final window to be incomplete.
				minRows := rowsPerBank * (windows - 1) * uint64(ch.TotalBanks())
				if st.RowsRefreshed < minRows {
					t.Errorf("%s: refreshed %d rows over %d windows, want >= %d",
						pol, st.RowsRefreshed, windows, minRows)
				}
			}
		})
	}
}

// TestNoRefreshHasNoRefreshes confirms the ideal baseline is clean.
func TestNoRefreshHasNoRefreshes(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshNone)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefreshCommands != 0 || rep.RefreshStalledReads != 0 {
		t.Fatalf("no-refresh run refreshed: %+v", rep.RefreshCommands)
	}
}

// TestSoftPartitionConfinesPages: with the co-design allocator, no task
// has a page outside its possible-banks vector (absent fall-backs).
func TestSoftPartitionConfinesPages(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(1, 1); err != nil {
		t.Fatal(err)
	}
	total := cfg.Mem.BanksPerChannel()
	for _, task := range sys.Kernel.Tasks() {
		if task.FallbackPages > 0 {
			continue // fall-back pages legitimately escape the mask
		}
		for g := 0; g < total; g++ {
			if !task.Ent.Mask.Has(g) && task.AS.BankOccupancy(g) > 0 {
				t.Errorf("task %d has %.3f of its pages on excluded bank %d",
					task.ID(), task.AS.BankOccupancy(g), g)
			}
		}
	}
}

// TestQuadCoreBuilds exercises the Figure 15 quad-core configuration.
func TestQuadCoreBuilds(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
	cfg.Cores = 4
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	mix := workload.MixFor(testMix(), 4, 4)
	sys, err := Build(cfg, mix, Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tasks) != 16 {
		t.Fatalf("%d tasks, want 16", len(rep.Tasks))
	}
	if rep.HarmonicIPC <= 0 {
		t.Fatal("no progress on quad-core")
	}
}

// TestTwoDIMMBuilds exercises the 2-DIMM (4-rank, 32-bank) scaling
// scenario, where a quantum spans two refresh slots.
func TestTwoDIMMBuilds(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
	cfg.Mem.DIMMsPerChannel = 2
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HarmonicIPC <= 0 {
		t.Fatal("no progress with 2 DIMMs")
	}
	// Refresh interference should still be near zero.
	if rep.RefreshStalledFrac > 0.02 {
		t.Errorf("2-DIMM co-design stalled frac = %v", rep.RefreshStalledFrac)
	}
}

func TestSetTaskMasksValidation(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshNone)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTaskMasks([]buddy.BankMask{1}); err == nil {
		t.Fatal("wrong-length mask slice accepted")
	}
	masks := make([]buddy.BankMask, 8)
	for i := range masks {
		masks[i] = buddy.AllBanks(16)
	}
	if err := sys.SetTaskMasks(masks); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTaskMasks(masks); err == nil {
		t.Fatal("SetTaskMasks after Run accepted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshNone)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWindows(0, 1); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestBuildRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshNone)
	cfg.Cores = 0
	if _, err := Build(cfg, testMix(), Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg2 := testConfig(config.Density8Gb, "bogus")
	if _, err := Build(cfg2, testMix(), Options{}); err == nil {
		t.Fatal("unknown refresh policy accepted")
	}
	cfg3 := testConfig(config.Density8Gb, config.RefreshNone)
	badMix := workload.Mix{Name: "bad", Entries: []workload.MixEntry{{Bench: "nope", Count: 1}}}
	if _, err := Build(cfg3, badMix, Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
