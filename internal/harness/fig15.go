package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// scenario is one sensitivity configuration of Figure 15.
type scenario struct {
	name         string
	cores        int
	ratio        int // tasks per core (consolidation ratio 1:ratio)
	dimms        int
	banksPerTask int
}

// Fig15 regenerates Figure 15: sensitivity of the co-design's gains to
// core count, consolidation ratio, and DIMMs per channel. Each cell is
// the mean IPC improvement over all-bank refresh across the selected
// mixes (tiled to the scenario's task count).
func Fig15(p Params) (*Result, error) {
	r := &Result{
		ID:    "fig15",
		Title: "Sensitivity: mean IPC improvement over all-bank refresh",
	}
	r.Table.Header = []string{"scenario", "policy"}
	for _, d := range mainDensities {
		r.Table.Header = append(r.Table.Header, d.String())
	}

	scenarios := []scenario{
		{"2cores-1:2", 2, 2, 1, 4},
		{"2cores-1:4", 2, 4, 1, 6},
		{"4cores-1:4", 4, 4, 1, 6},
		{"2cores-1:4-2dimm", 2, 4, 2, 6},
	}

	bundles := []bundle{bundleAllBank, bundlePerBank, bundleCoDesign}
	var jobs []cellJob
	for _, sc := range scenarios {
		for _, d := range mainDensities {
			for _, baseMix := range p.sweepMixes() {
				mix := workload.MixFor(baseMix, sc.cores, sc.ratio)
				for _, b := range bundles {
					sc, d, b, mix := sc, d, b, mix
					jobs = append(jobs, cellJob{
						key: cellKey(sc.name, d.String(), baseMix.Name, b.name),
						cell: runner.Cell{Mix: mix.Name, Density: d.String(),
							Bundle: b.name, Seed: p.Seed},
						run: func() (*core.Report, error) { return p.runScenario(d, b, sc, mix) },
					})
				}
			}
		}
	}
	reps, failed, err := p.runCells("fig15", jobs)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, sc := range scenarios {
		pbRow := []string{sc.name, "perbank"}
		cdRow := []string{sc.name, "codesign"}
		for _, d := range mainDensities {
			var gpb, gcd []float64
			for _, baseMix := range p.sweepMixes() {
				ab := reps[cellKey(sc.name, d.String(), baseMix.Name, bundleAllBank.name)]
				pb := reps[cellKey(sc.name, d.String(), baseMix.Name, bundlePerBank.name)]
				cd := reps[cellKey(sc.name, d.String(), baseMix.Name, bundleCoDesign.name)]
				if ab == nil || pb == nil || cd == nil {
					// Quarantined cell: this mix drops out of the mean.
					continue
				}
				if ab.HarmonicIPC > 0 {
					gpb = append(gpb, pb.HarmonicIPC/ab.HarmonicIPC-1)
					gcd = append(gcd, cd.HarmonicIPC/ab.HarmonicIPC-1)
				}
			}
			pbRow = append(pbRow, pct(mean(gpb)))
			cdRow = append(cdRow, pct(mean(gcd)))
		}
		r.Table.Rows = append(r.Table.Rows, pbRow, cdRow)
	}
	r.Notes = append(r.Notes,
		"paper: co-design +14.2%/11.2%/8.9% over all-bank at 1:2 (32/24/16Gb); gains persist for quad-core and improve with 2 DIMMs")
	return r, nil
}

// runScenario runs one sensitivity cell.
func (p Params) runScenario(d config.Density, b bundle, sc scenario, mix workload.Mix) (*core.Report, error) {
	cfg := p.configFor(d, b, false)
	cfg.Cores = sc.cores
	cfg.Mem.DIMMsPerChannel = sc.dimms
	cfg.OS.BanksPerTask = sc.banksPerTask
	cfg.Name = fmt.Sprintf("fig15-%s", sc.name)
	return p.run(cfg, mix, "")
}
