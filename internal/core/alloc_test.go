package core

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// TestSteadyStateRunIsAllocationFree guards the front end's reuse: the
// controllers reuse issued requests, the cores keep their outstanding
// misses by value, the caches report write-backs in scratch space and
// the page tables stop growing once every page is resident. So a warm,
// miss-heavy machine runs without allocating, as the event engine's
// TestEngineScheduleIsAllocationFree requires of the engine alone.
func TestSteadyStateRunIsAllocationFree(t *testing.T) {
	baseline := testConfig(config.Density32Gb, config.RefreshAllBank)
	codesign := testConfig(config.Density32Gb, config.RefreshPerBankSeq)
	codesign.OS.Alloc = config.AllocSoftPartition
	codesign.OS.Scheduler = config.SchedCFS
	codesign.OS.RefreshAware = true
	for _, tc := range []struct {
		name string
		cfg  config.System
	}{{"allbank-rr", baseline}, {"codesign", codesign}} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			mix := workload.Mix{Name: "mcf", Classes: "H", Entries: []workload.MixEntry{{Bench: "mcf", Count: 4}}}
			// 4 MB per task: four times a core's L2, so most accesses
			// that leave L1 go to DRAM.
			sys, err := Build(cfg, mix, Options{FootprintScale: 4.0 / 1700})
			if err != nil {
				t.Fatal(err)
			}
			sys.Kernel.Start()
			// Warm until every task has faulted in its whole footprint.
			w := sim.Time(sys.Window())
			sys.Eng.RunUntil(20 * w)
			faults, misses := pageFaults(sys), llcMisses(sys)
			allocs := testing.AllocsPerRun(20, func() { sys.Eng.RunUntil(sys.Eng.Now() + w/4) })
			if pageFaults(sys) != faults {
				t.Fatalf("page faults went on after warmup (%d -> %d): the footprint is not resident yet", faults, pageFaults(sys))
			}
			if got := llcMisses(sys) - misses; got < 1000 {
				t.Fatalf("only %d LLC misses in the measured runs, want a miss-heavy stream", got)
			}
			if allocs != 0 {
				t.Fatalf("allocs per run = %v, want 0", allocs)
			}
		})
	}
}

func pageFaults(s *System) (n uint64) {
	for _, task := range s.Kernel.Tasks() {
		n += task.Stats().PageFaults
	}
	return n
}

func llcMisses(s *System) (n uint64) {
	for _, task := range s.Kernel.Tasks() {
		n += task.Stats().LLCMisses
	}
	return n
}
