package harness

import (
	"refsched/internal/config"
	"refsched/internal/kernel/buddy"
	"refsched/internal/runner"
)

// fig4 regenerates Figure 4: the BLP-vs-tRFC trade-off. Each task is
// confined to k of the 8 banks per rank with refresh entirely
// eliminated, and IPC is normalized to the task-uses-all-8-banks
// configuration *with* all-bank refresh at each density. Values above
// 1.0 mean that giving up bank-level parallelism is worth it if doing
// so removes all refresh overhead.
func fig4(p Params) ([]*Result, error) {
	r := &Result{
		ID:    "fig4",
		Title: "IPC of k-bank confinement without refresh, normalized to 8 banks with all-bank refresh",
	}
	r.Table.Header = []string{"density", "1-bank", "2-banks", "4-banks", "8-banks(noref)"}

	// Enumerate the all-bank baselines plus every k-bank confinement
	// cell up front and fan out across the worker pool.
	var cells []runner.Cell
	for _, d := range config.Densities {
		for _, mix := range p.sweepMixes() {
			cells = append(cells, p.cell(mix, d, bundleAllBank, false))
			for _, k := range confineBanks {
				cells = append(cells, p.cell(mix, d, confined(k), false))
			}
		}
	}
	reps, failed, err := p.runCells("fig4", cells)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, d := range config.Densities {
		row := []string{d.String()}
		for _, k := range confineBanks {
			var ratios []float64
			for _, mix := range p.sweepMixes() {
				baseRep := reps[p.cell(mix, d, bundleAllBank, false)]
				rep := reps[p.cell(mix, d, confined(k), false)]
				if baseRep == nil || rep == nil {
					// Quarantined cell: this mix drops out of the mean.
					continue
				}
				if base := baseRep.HarmonicIPC; base > 0 {
					ratios = append(ratios, rep.HarmonicIPC/base)
				}
			}
			row = append(row, meanPct(ratios, 1))
		}
		r.Table.Rows = append(r.Table.Rows, row)
	}
	r.Notes = append(r.Notes,
		"paper: >=4 banks per task beats the 8-bank all-bank-refresh baseline for 16/24/32Gb;",
		"paper: at 8Gb (low tRFC) confinement is not worth it")
	return []*Result{r}, nil
}

// confineBanks are the banks per rank Figure 4 confines each task to.
var confineBanks = []int{1, 2, 4, 8}

// confineMasks gives task i the k bank indices {i, i+1, ... i+k-1} mod
// banksPerRank (in every rank): confinement with stagger, so tasks
// spread over the banks rather than piling onto one.
func confineMasks(cfg config.System, ntasks, k int) []buddy.BankMask {
	nb := cfg.Mem.BanksPerRank
	nr := cfg.Mem.Ranks()
	masks := make([]buddy.BankMask, ntasks)
	for i := range masks {
		var m buddy.BankMask
		for j := 0; j < k && j < nb; j++ {
			b := (i + j) % nb
			for rk := 0; rk < nr; rk++ {
				m = m.Set(rk*nb + b)
			}
		}
		masks[i] = m
	}
	return masks
}
