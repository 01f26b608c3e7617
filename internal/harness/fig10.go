package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
)

// mainDensities are the densities the headline figures sweep (8 Gb is
// excluded as in the paper, since per-bank refresh already suffices
// there).
var mainDensities = []config.Density{config.Density16Gb, config.Density24Gb, config.Density32Gb}

// mainResults runs the Figure 10/11/13 experiment grid — every selected
// mix × {16,24,32 Gb} × {all-bank, per-bank, co-design} — at the given
// retention temperature, and returns the reports keyed by cell plus any
// quarantined cell failures. All cells run through the fault-tolerant
// parallel sweep runner.
func (p Params) mainResults(highTemp bool) (map[runner.Cell]*core.Report, []*runner.CellError, error) {
	figID := "fig10"
	if highTemp {
		figID = "fig13"
	}
	var cells []runner.Cell
	for _, mix := range p.mixes() {
		for _, d := range mainDensities {
			for _, b := range []bundle{bundleAllBank, bundlePerBank, bundleCoDesign} {
				cells = append(cells, p.cell(mix, d, b, highTemp))
			}
		}
	}
	return p.runCells(figID, cells)
}

// fig10 regenerates Figure 10 (IPC improvement of per-bank refresh and
// the co-design, normalized to all-bank refresh, per workload and
// density) and Figure 11 (average memory access latency).
func fig10(p Params) ([]*Result, error) { return p.mainFigures(false) }

// fig13 regenerates Figure 13, fig10's grid at 32 ms retention, and its
// latency table.
func fig13(p Params) ([]*Result, error) { return p.mainFigures(true) }

// mainFigures renders the Figure 10/11 grid, or Figure 13's at 32 ms
// retention when highTemp is set.
func (p Params) mainFigures(highTemp bool) ([]*Result, error) {
	reps, failed, err := p.mainResults(highTemp)
	if err != nil {
		return nil, err
	}

	id10, id11 := "fig10", "fig11"
	title := "IPC improvement normalized to all-bank refresh"
	if highTemp {
		id10, id11 = "fig13", "fig13-lat"
		title += " (32ms retention)"
	}
	r10 := &Result{ID: id10, Title: title}
	r10.Table.Header = []string{"mix"}
	r11 := &Result{ID: id11, Title: "Average memory access latency (memory cycles)"}
	r11.Table.Header = []string{"mix"}
	for _, d := range mainDensities {
		r10.Table.Header = append(r10.Table.Header, d.String()+"-perbank", d.String()+"-codesign")
		r11.Table.Header = append(r11.Table.Header,
			d.String()+"-allbank", d.String()+"-perbank", d.String()+"-codesign")
	}

	gainsPB := make(map[config.Density][]float64)
	gainsCD := make(map[config.Density][]float64)
	for _, mix := range p.mixes() {
		row10 := []string{mix.Name}
		row11 := []string{mix.Name}
		rowPB := make(map[config.Density]float64)
		rowCD := make(map[config.Density]float64)
		complete := true
		for _, d := range mainDensities {
			ab := reps[p.cell(mix, d, bundleAllBank, highTemp)]
			pb := reps[p.cell(mix, d, bundlePerBank, highTemp)]
			cd := reps[p.cell(mix, d, bundleCoDesign, highTemp)]
			if ab == nil || pb == nil || cd == nil {
				// A quarantined cell voids this mix's whole row (and its
				// contribution to the averages); it is accounted for in
				// the failure summary instead.
				complete = false
				break
			}
			gpb, gcd := gain(pb, ab), gain(cd, ab)
			rowPB[d], rowCD[d] = gpb, gcd
			row10 = append(row10, pct(gpb), pct(gcd))
			row11 = append(row11,
				fmt.Sprintf("%.0f", ab.AvgMemLatencyMemCycles),
				fmt.Sprintf("%.0f", pb.AvgMemLatencyMemCycles),
				fmt.Sprintf("%.0f", cd.AvgMemLatencyMemCycles))
		}
		if !complete {
			continue
		}
		for _, d := range mainDensities {
			gainsPB[d] = append(gainsPB[d], rowPB[d])
			gainsCD[d] = append(gainsCD[d], rowCD[d])
		}
		r10.Table.Rows = append(r10.Table.Rows, row10)
		r11.Table.Rows = append(r11.Table.Rows, row11)
	}
	avg := []string{"average"}
	for _, d := range mainDensities {
		avg = append(avg, meanPct(gainsPB[d], 1), meanPct(gainsCD[d], 1))
	}
	r10.Table.Rows = append(r10.Table.Rows, avg)

	if highTemp {
		r10.Notes = append(r10.Notes,
			"paper: co-design +34.1%/23.4%/16.4% over all-bank and +6.7%/6.3%/3.9% over per-bank for 32/24/16Gb")
	} else {
		r10.Notes = append(r10.Notes,
			"paper: co-design +16.2%/12.1%/9.03% over all-bank and +6.3%/5.4%/2.5% over per-bank for 32/24/16Gb",
			"paper: low-MPKI mixes (WL-2/3/4) see no improvement")
	}
	r10.Failed = failed
	return []*Result{r10, r11}, nil
}
