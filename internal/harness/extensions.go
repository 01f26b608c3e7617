package harness

import (
	"refsched/internal/config"
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

	entries := []bundle{
		bundleAllBank, bundleElastic, bundlePausing, bundleRAIDR,
		bundlePerBank, bundleSALP8, bundleCoDesign,
	}

	// Enumerate every (entry, mix) cell — the all-bank entry doubles as
	// the per-mix baseline — and fan out across the worker pool.
	var cells []runner.Cell
	for _, b := range entries {
		for _, mix := range p.sweepMixes() {
			cells = append(cells, p.cell(mix, d, b, false))
		}
	}
	reps, failed, err := p.runCells("ext1", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, b := range entries {
		var gains, stalls, energies []float64
		for _, mix := range p.sweepMixes() {
			rep := reps[p.cell(mix, d, b, false)]
			base := reps[p.cell(mix, d, bundleAllBank, false)]
			if rep == nil || base == nil {
				// Quarantined cell: this mix drops out of the means.
				continue
			}
			g := 0.0
			if ipc := base.HarmonicIPC; ipc > 0 {
				g = rep.HarmonicIPC/ipc - 1
			}
			gains = append(gains, g)
			stalls = append(stalls, rep.RefreshStalledFrac)
			energies = append(energies, rep.RefreshEnergyFrac)
		}
		gain := meanPct(gains, 1)
		if b == bundleAllBank {
			gain = "baseline"
		}
		r.Table.AddRow(b.name, gain, meanPct(stalls, 2), meanPct(energies, 1))
	}
	r.Notes = append(r.Notes,
		"elastic/pausing/raidr are the paper's Section 7 related work, rebuilt as comparators;",
		"perbank-salp8 is the Section 7 future-work direction: per-bank refresh at subarray granularity;",
		"raidr assumes an (optimistic) synthetic retention profile — its energy column is its selling point")
	return r, nil
}
