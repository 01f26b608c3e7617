package harness

import (
	"refsched/internal/config"
	"refsched/internal/runner"
)

// fig12 regenerates Figure 12: DDR4 fine-granularity refresh modes
// (1x = all-bank baseline, 2x, 4x) versus the co-design at 32 Gb, with
// IPC normalized to the 1x all-bank baseline. Finer FGR modes lose
// ground because tRFC shrinks sub-linearly (1.35x / 1.63x) while the
// command rate doubles/quadruples.
var fig12 = gainTable{
	id:       "fig12",
	title:    "DDR4 FGR modes vs co-design at 32Gb (normalized to 1x)",
	compared: []bundle{bundleFGR2x, bundleFGR4x, bundleCoDesign},
	note:     "paper: 2x and 4x modes fare worse than 1x; the co-design beats all FGR modes",
}

// fig14 regenerates Figure 14: the co-design versus previously proposed
// hardware-only mechanisms at 32 Gb — out-of-order per-bank refresh
// (Chang et al.) and Adaptive Refresh (Mukundan et al.) — all
// normalized to all-bank refresh.
var fig14 = gainTable{
	id:       "fig14",
	title:    "Comparison with prior hardware-only proposals at 32Gb (normalized to all-bank)",
	compared: []bundle{bundleAdaptive, bundleOOO, bundlePerBank, bundleCoDesign},
	note:     "paper: AR +1.9% over all-bank (below per-bank); OOO per-bank +9.5%; co-design +6.1% over OOO and +14.6% over AR",
}

// gainTable is a figure of per-mix IPC gains over all-bank refresh at
// 32 Gb, one column per compared bundle. Its id names the rendered
// figure and the sweep its cells run in.
type gainTable struct {
	id, title string
	compared  []bundle
	note      string
}

// run sweeps every selected mix under all-bank refresh and each
// compared bundle and renders the gains, with a row of their means.
func (g gainTable) run(p Params) ([]*Result, error) {
	r := &Result{ID: g.id, Title: g.title}
	r.Table.Header = []string{"mix"}
	for _, b := range g.compared {
		r.Table.Header = append(r.Table.Header, b.name)
	}
	d := config.Density32Gb

	swept := append([]bundle{bundleAllBank}, g.compared...)
	var cells []runner.Cell
	for _, mix := range p.mixes() {
		for _, b := range swept {
			cells = append(cells, p.cell(mix, d, b, false))
		}
	}
	reps, failed, err := p.runCells(g.id, cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	gains := make([][]float64, len(g.compared))
	for _, mix := range p.mixes() {
		base := reps[p.cell(mix, d, bundleAllBank, false)]
		complete := base != nil
		for _, b := range g.compared {
			complete = complete && reps[p.cell(mix, d, b, false)] != nil
		}
		if !complete {
			// Quarantined cell: the mix's row is omitted (see Failed).
			continue
		}
		row := []string{mix.Name}
		for i, b := range g.compared {
			v := gain(reps[p.cell(mix, d, b, false)], base)
			gains[i] = append(gains[i], v)
			row = append(row, pct(v))
		}
		r.Table.AddRow(row...)
	}
	avg := []string{"average"}
	for _, gs := range gains {
		avg = append(avg, meanPct(gs, 1))
	}
	r.Table.AddRow(avg...)
	r.Notes = append(r.Notes, g.note)
	return []*Result{r}, nil
}
