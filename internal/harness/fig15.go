package harness

import "refsched/internal/runner"

// scenario is one sensitivity machine of Figure 15.
type scenario struct {
	name         string
	cores        int
	ratio        int // tasks per core (consolidation ratio 1:ratio)
	dimms        int
	banksPerTask int
}

// scenarios are Figure 15's machines; each runs scenarioBundles, named
// <bundle>@<scenario> (see bundle.on).
var scenarios = []scenario{
	{"2cores-1:2", 2, 2, 1, 4},
	{"2cores-1:4", 2, 4, 1, 6},
	{"4cores-1:4", 4, 4, 1, 6},
	{"2cores-1:4-2dimm", 2, 4, 2, 6},
}

var scenarioBundles = []bundle{bundleAllBank, bundlePerBank, bundleCoDesign}

// fig15 regenerates Figure 15: sensitivity of the co-design's gains to
// core count, consolidation ratio, and DIMMs per channel. Each cell is
// the mean IPC improvement over all-bank refresh across the selected
// mixes (tiled to the scenario's task count).
func fig15(p Params) ([]*Result, error) {
	r := &Result{
		ID:    "fig15",
		Title: "Sensitivity: mean IPC improvement over all-bank refresh",
	}
	r.Table.Header = []string{"scenario", "policy"}
	for _, d := range mainDensities {
		r.Table.Header = append(r.Table.Header, d.String())
	}

	var cells []runner.Cell
	for i := range scenarios {
		for _, d := range mainDensities {
			for _, mix := range p.sweepMixes() {
				for _, b := range scenarioBundles {
					cells = append(cells, p.cell(mix, d, b.on(&scenarios[i]), false))
				}
			}
		}
	}
	reps, failed, err := p.runCells("fig15", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for i := range scenarios {
		sc := &scenarios[i]
		pbRow := []string{sc.name, "perbank"}
		cdRow := []string{sc.name, "codesign"}
		for _, d := range mainDensities {
			var gpb, gcd []float64
			for _, mix := range p.sweepMixes() {
				ab := reps[p.cell(mix, d, bundleAllBank.on(sc), false)]
				pb := reps[p.cell(mix, d, bundlePerBank.on(sc), false)]
				cd := reps[p.cell(mix, d, bundleCoDesign.on(sc), false)]
				if ab == nil || pb == nil || cd == nil {
					// Quarantined cell: this mix drops out of the mean.
					continue
				}
				if ab.HarmonicIPC > 0 {
					gpb = append(gpb, pb.HarmonicIPC/ab.HarmonicIPC-1)
					gcd = append(gcd, cd.HarmonicIPC/ab.HarmonicIPC-1)
				}
			}
			pbRow = append(pbRow, meanPct(gpb, 1))
			cdRow = append(cdRow, meanPct(gcd, 1))
		}
		r.Table.Rows = append(r.Table.Rows, pbRow, cdRow)
	}
	r.Notes = append(r.Notes,
		"paper: co-design +14.2%/11.2%/8.9% over all-bank at 1:2 (32/24/16Gb); gains persist for quad-core and improve with 2 DIMMs")
	return []*Result{r}, nil
}
