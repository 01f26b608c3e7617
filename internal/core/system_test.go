package core

import (
	"strings"
	"testing"

	"refsched/internal/config"
	"refsched/internal/workload"
)

// testConfig returns a fast, scaled-down Table 1 machine.
func testConfig(d config.Density, pol config.RefreshPolicy) config.System {
	cfg := config.Default(d, 2048) // tREFW = 31.25 µs, timeslice ~2 µs
	cfg.Refresh.Policy = pol
	return cfg
}

func testMix() workload.Mix {
	return workload.Mix{
		Name:    "smoke",
		Classes: "H+L",
		Entries: []workload.MixEntry{{Bench: "mcf", Count: 4}, {Bench: "povray", Count: 4}},
	}
}

func TestSmokeBaseline(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HarmonicIPC <= 0 {
		t.Fatalf("harmonic IPC = %v, want > 0\n%s", rep.HarmonicIPC, rep)
	}
	if rep.Reads == 0 {
		t.Fatal("no DRAM reads observed")
	}
	if rep.RefreshCommands == 0 {
		t.Fatal("no refresh commands under all-bank policy")
	}
	for _, tr := range rep.Tasks {
		if tr.Instructions == 0 {
			t.Errorf("task %d (%s) committed no instructions", tr.TaskID, tr.Bench)
		}
		if tr.Quanta == 0 {
			t.Errorf("task %d (%s) never scheduled", tr.TaskID, tr.Bench)
		}
	}
	t.Logf("\n%s", rep)
}

func TestSmokeCoDesign(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.Scheduler = config.SchedCFS
	cfg.OS.RefreshAware = true
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HarmonicIPC <= 0 {
		t.Fatalf("harmonic IPC = %v, want > 0\n%s", rep.HarmonicIPC, rep)
	}
	t.Logf("\n%s", rep)
	t.Logf("sched: %+v", rep.SchedStats)
	t.Logf("alloc: %+v", rep.AllocStats)
	if rep.SchedStats.EligiblePicks == 0 {
		t.Error("refresh-aware scheduler never found an eligible task")
	}
}

// TestBuildRefusesUnaddressableMemory checks the one-time bound behind
// the 32-bit page frames and cache tags: with Table 1's geometry a
// machine must hold less than 2^44 bytes.
func TestBuildRefusesUnaddressableMemory(t *testing.T) {
	cfg := testConfig(config.Density32Gb, config.RefreshAllBank)
	per := cfg.Mem.TotalCapacity() / uint64(cfg.Mem.Channels)
	cfg.Mem.Channels = int(1 << 44 / per)
	if _, err := Build(cfg, testMix(), Options{}); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("Build of a %d-byte machine = %v, want the address-width error", cfg.Mem.TotalCapacity(), err)
	}
	cfg.Mem.Channels--
	if err := checkAddressWidth(cfg); err != nil {
		t.Fatalf("a %d-byte machine was refused: %v", cfg.Mem.TotalCapacity(), err)
	}
}
