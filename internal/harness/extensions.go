package harness

import (
	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
)

// Extensions runs the beyond-the-paper comparison (experiment "ext1"):
// the three related-work mechanisms the paper discusses but does not
// simulate — Elastic Refresh, Refresh Pausing, and retention-aware
// RAIDR — plus the Section 7 hardware direction of subarray-level
// per-bank refresh (SALP), all against per-bank refresh and the
// co-design at 32 Gb. It reports both the IPC gain over all-bank
// refresh and refresh's share of DRAM energy (RAIDR's selling point).
func Extensions(p Params) (*Result, error) {
	r := &Result{
		ID:    "ext1",
		Title: "Extensions: related-work mechanisms and subarray refresh at 32Gb (vs all-bank)",
	}
	r.Table.Header = []string{"policy", "ipc-gain", "refresh-stalled", "refresh-energy"}
	d := config.Density32Gb

	type entry struct {
		name      string
		bundle    bundle
		subarrays int
	}
	entries := []entry{
		{"allbank", bundleAllBank, 0},
		{"elastic", bundle{"elastic", config.RefreshElastic, false}, 0},
		{"pausing", bundle{"pausing", config.RefreshPausing, false}, 0},
		{"raidr", bundle{"raidr", config.RefreshRAIDR, false}, 0},
		{"perbank", bundlePerBank, 0},
		{"perbank-salp8", bundle{"perbanksa", config.RefreshPerBankSA, false}, 8},
		{"codesign", bundleCoDesign, 0},
	}

	// Enumerate every (entry, mix) cell — the all-bank entry doubles as
	// the per-mix baseline — and fan out across the worker pool.
	var jobs []cellJob
	for _, e := range entries {
		for _, mix := range p.sweepMixes() {
			e, mix := e, mix
			jobs = append(jobs, cellJob{
				key: cellKey(e.name, mix.Name),
				cell: runner.Cell{Mix: mix.Name, Density: d.String(),
					Bundle: e.name, Seed: p.Seed},
				run: func() (*core.Report, error) {
					cfg := p.configFor(d, e.bundle, false)
					cfg.Mem.SubarraysPerBank = e.subarrays
					return p.run(cfg, mix, "")
				},
			})
		}
	}
	reps, failed, err := p.runCells("ext1", jobs)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, e := range entries {
		var gains, stalls, energies []float64
		for _, mix := range p.sweepMixes() {
			rep := reps[cellKey(e.name, mix.Name)]
			base := reps[cellKey("allbank", mix.Name)]
			if rep == nil || base == nil {
				// Quarantined cell: this mix drops out of the means.
				continue
			}
			g := 0.0
			if b := base.HarmonicIPC; b > 0 {
				g = rep.HarmonicIPC/b - 1
			}
			gains = append(gains, g)
			stalls = append(stalls, rep.RefreshStalledFrac)
			energies = append(energies, rep.RefreshEnergyFrac)
		}
		gain := meanPct(gains, 1)
		if e.name == "allbank" {
			gain = "baseline"
		}
		r.Table.AddRow(e.name, gain, meanPct(stalls, 2), meanPct(energies, 1))
	}
	r.Notes = append(r.Notes,
		"elastic/pausing/raidr are the paper's Section 7 related work, rebuilt as comparators;",
		"perbank-salp8 is the Section 7 future-work direction: per-bank refresh at subarray granularity;",
		"raidr assumes an (optimistic) synthetic retention profile — its energy column is its selling point")
	return r, nil
}
