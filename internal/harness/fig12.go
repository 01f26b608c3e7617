package harness

import (
	"refsched/internal/config"
	"refsched/internal/runner"
)

// Fig12 regenerates Figure 12: DDR4 fine-granularity refresh modes
// (1x = all-bank baseline, 2x, 4x) versus the co-design at 32 Gb, with
// IPC normalized to the 1x all-bank baseline. Finer FGR modes lose
// ground because tRFC shrinks sub-linearly (1.35x / 1.63x) while the
// command rate doubles/quadruples.
func Fig12(p Params) (*Result, error) {
	r := &Result{
		ID:    "fig12",
		Title: "DDR4 FGR modes vs co-design at 32Gb (normalized to 1x)",
	}
	r.Table.Header = []string{"mix", "fgr2x", "fgr4x", "codesign"}
	d := config.Density32Gb

	bundles := []bundle{bundleAllBank, bundleFGR2x, bundleFGR4x, bundleCoDesign}
	var cells []runner.Cell
	for _, mix := range p.mixes() {
		for _, b := range bundles {
			cells = append(cells, p.cell(mix, d, b, false))
		}
	}
	reps, failed, err := p.runCells("fig12", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	var g2, g4, gc []float64
	for _, mix := range p.mixes() {
		base := reps[p.cell(mix, d, bundleAllBank, false)]
		f2 := reps[p.cell(mix, d, bundleFGR2x, false)]
		f4 := reps[p.cell(mix, d, bundleFGR4x, false)]
		cd := reps[p.cell(mix, d, bundleCoDesign, false)]
		if base == nil || f2 == nil || f4 == nil || cd == nil {
			// Quarantined cell: the mix's row is omitted (see Failed).
			continue
		}
		v2, v4, vc := 0.0, 0.0, 0.0
		if base.HarmonicIPC > 0 {
			v2 = f2.HarmonicIPC/base.HarmonicIPC - 1
			v4 = f4.HarmonicIPC/base.HarmonicIPC - 1
			vc = cd.HarmonicIPC/base.HarmonicIPC - 1
		}
		g2, g4, gc = append(g2, v2), append(g4, v4), append(gc, vc)
		r.Table.AddRow(mix.Name, pct(v2), pct(v4), pct(vc))
	}
	r.Table.AddRow("average", meanPct(g2, 1), meanPct(g4, 1), meanPct(gc, 1))
	r.Notes = append(r.Notes,
		"paper: 2x and 4x modes fare worse than 1x; the co-design beats all FGR modes")
	return r, nil
}

// Fig14 regenerates Figure 14: the co-design versus previously proposed
// hardware-only mechanisms at 32 Gb — out-of-order per-bank refresh
// (Chang et al.) and Adaptive Refresh (Mukundan et al.) — all
// normalized to all-bank refresh.
func Fig14(p Params) (*Result, error) {
	r := &Result{
		ID:    "fig14",
		Title: "Comparison with prior hardware-only proposals at 32Gb (normalized to all-bank)",
	}
	r.Table.Header = []string{"mix", "adaptive", "oooperbank", "perbank", "codesign"}
	d := config.Density32Gb

	compared := []bundle{bundleAdaptive, bundleOOO, bundlePerBank, bundleCoDesign}
	var cells []runner.Cell
	for _, mix := range p.mixes() {
		for _, b := range append([]bundle{bundleAllBank}, compared...) {
			cells = append(cells, p.cell(mix, d, b, false))
		}
	}
	reps, failed, err := p.runCells("fig14", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	gains := map[string][]float64{}
	for _, mix := range p.mixes() {
		base := reps[p.cell(mix, d, bundleAllBank, false)]
		complete := base != nil
		for _, b := range compared {
			complete = complete && reps[p.cell(mix, d, b, false)] != nil
		}
		if !complete {
			// Quarantined cell: the mix's row is omitted (see Failed).
			continue
		}
		row := []string{mix.Name}
		for _, b := range compared {
			rep := reps[p.cell(mix, d, b, false)]
			g := 0.0
			if base.HarmonicIPC > 0 {
				g = rep.HarmonicIPC/base.HarmonicIPC - 1
			}
			gains[b.name] = append(gains[b.name], g)
			row = append(row, pct(g))
		}
		r.Table.Rows = append(r.Table.Rows, row)
	}
	r.Table.AddRow("average",
		meanPct(gains["adaptive"], 1), meanPct(gains["oooperbank"], 1),
		meanPct(gains["perbank"], 1), meanPct(gains["codesign"], 1))
	r.Notes = append(r.Notes,
		"paper: AR +1.9% over all-bank (below per-bank); OOO per-bank +9.5%; co-design +6.1% over OOO and +14.6% over AR")
	return r, nil
}
