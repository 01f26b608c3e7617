package harness

import (
	"refsched/internal/config"
	"refsched/internal/runner"
)

// Fig3 regenerates Figure 3: performance degradation due to refresh
// (relative to an ideal refresh-free system) for all-bank and per-bank
// refresh across device densities, at both 64 ms and 32 ms retention.
// Each cell is the mean degradation of harmonic-mean IPC over the
// selected workload mixes.
func Fig3(p Params) (*Result, error) {
	r := &Result{
		ID:    "fig3",
		Title: "Performance degradation due to refresh (vs no-refresh ideal)",
	}
	r.Table.Header = []string{"density", "tREFW", "allbank-deg", "perbank-deg"}

	temps := []struct {
		name string
		high bool
	}{{"64ms", false}, {"32ms", true}}

	// Enumerate every (temp, density, mix, bundle) cell up front and fan
	// out across the worker pool.
	var cells []runner.Cell
	for _, temp := range temps {
		for _, d := range config.Densities {
			for _, mix := range p.sweepMixes() {
				for _, b := range []bundle{bundleNone, bundleAllBank, bundlePerBank} {
					cells = append(cells, p.cell(mix, d, b, temp.high))
				}
			}
		}
	}
	reps, failed, err := p.runCells("fig3", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, temp := range temps {
		for _, d := range config.Densities {
			var degAB, degPB []float64
			for _, mix := range p.sweepMixes() {
				none := reps[p.cell(mix, d, bundleNone, temp.high)]
				ab := reps[p.cell(mix, d, bundleAllBank, temp.high)]
				pb := reps[p.cell(mix, d, bundlePerBank, temp.high)]
				if none == nil || ab == nil || pb == nil {
					// Quarantined cell: this mix drops out of the mean.
					continue
				}
				if none.HarmonicIPC > 0 {
					degAB = append(degAB, 1-ab.HarmonicIPC/none.HarmonicIPC)
					degPB = append(degPB, 1-pb.HarmonicIPC/none.HarmonicIPC)
				}
			}
			r.Table.AddRow(d.String(), temp.name, meanPct(degAB, 1), meanPct(degPB, 1))
		}
	}
	r.Notes = append(r.Notes,
		"paper: 64ms all-bank degradation grows 5.4%->17.2% and per-bank 0.24%->9.8% from 8Gb to 32Gb;",
		"paper: 32ms all-bank reaches 34.8% and per-bank 20.3% at 32Gb")
	return r, nil
}
