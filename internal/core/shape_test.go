package core

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/workload"
)

// runPolicy builds and runs a mix under one policy bundle, returning the
// report.
func runPolicy(t *testing.T, d config.Density, scale uint64, pol config.RefreshPolicy, codesign bool, mix workload.Mix, fpScale float64) *Report {
	t.Helper()
	cfg := config.Default(d, scale)
	cfg.Refresh.Policy = pol
	if codesign {
		cfg.OS.Alloc = config.AllocSoftPartition
		cfg.OS.Scheduler = config.SchedCFS
		cfg.OS.RefreshAware = true
	}
	sys, err := Build(cfg, mix, Options{FootprintScale: fpScale})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWindows(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRefreshDegradationShape verifies the paper's core ordering at
// 32 Gb: no-refresh >= co-design > per-bank > all-bank for a
// memory-intensive workload, and that the co-design eliminates
// refresh-stalled reads. The four runs are independent parallel
// subtests; the assertions compare them once all four have finished.
func TestRefreshDegradationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape runs are slow")
	}
	mix := workload.Mix{Name: "shape", Classes: "H",
		Entries: []workload.MixEntry{{Bench: "mcf", Count: 4}, {Bench: "bwaves", Count: 4}}}
	const scale, fp = 64, 0.05

	runs := []struct {
		name     string
		pol      config.RefreshPolicy
		codesign bool
	}{
		{"none", config.RefreshNone, false},
		{"allbank", config.RefreshAllBank, false},
		{"perbank", config.RefreshPerBankRR, false},
		{"codesign", config.RefreshPerBankSeq, true},
	}
	reps := make([]*Report, len(runs))
	// A group of parallel subtests returns once every member has.
	t.Run("runs", func(t *testing.T) {
		for i, r := range runs {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				reps[i] = runPolicy(t, config.Density32Gb, scale, r.pol, r.codesign, mix, fp)
			})
		}
	})
	if t.Failed() {
		return
	}
	none, ab, pb, cd := reps[0], reps[1], reps[2], reps[3]

	t.Logf("none: hIPC=%.4f lat=%.1f", none.HarmonicIPC, none.AvgMemLatency)
	t.Logf("allbank: hIPC=%.4f lat=%.1f stalled=%.4f", ab.HarmonicIPC, ab.AvgMemLatency, ab.RefreshStalledFrac)
	t.Logf("perbank: hIPC=%.4f lat=%.1f stalled=%.4f", pb.HarmonicIPC, pb.AvgMemLatency, pb.RefreshStalledFrac)
	t.Logf("codesign: hIPC=%.4f lat=%.1f stalled=%.4f sched=%+v", cd.HarmonicIPC, cd.AvgMemLatency, cd.RefreshStalledFrac, cd.SchedStats)

	if !(ab.HarmonicIPC < pb.HarmonicIPC) {
		t.Errorf("all-bank (%.4f) should underperform per-bank (%.4f)", ab.HarmonicIPC, pb.HarmonicIPC)
	}
	if !(pb.HarmonicIPC < cd.HarmonicIPC) {
		t.Errorf("per-bank (%.4f) should underperform co-design (%.4f)", pb.HarmonicIPC, cd.HarmonicIPC)
	}
	if cd.RefreshStalledFrac > 0.001 {
		t.Errorf("co-design refresh-stalled fraction %.4f, want ~0", cd.RefreshStalledFrac)
	}
	degAB := 1 - ab.HarmonicIPC/none.HarmonicIPC
	degPB := 1 - pb.HarmonicIPC/none.HarmonicIPC
	t.Logf("degradation: all-bank %.1f%%, per-bank %.1f%%", degAB*100, degPB*100)
	if degAB < 0.05 {
		t.Errorf("all-bank degradation %.3f too small for 32Gb H workload", degAB)
	}
}
