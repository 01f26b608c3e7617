package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/kernel/buddy"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// Fig4 regenerates Figure 4: the BLP-vs-tRFC trade-off. Each task is
// confined to k of the 8 banks per rank with refresh entirely
// eliminated, and IPC is normalized to the task-uses-all-8-banks
// configuration *with* all-bank refresh at each density. Values above
// 1.0 mean that giving up bank-level parallelism is worth it if doing
// so removes all refresh overhead.
func Fig4(p Params) (*Result, error) {
	r := &Result{
		ID:    "fig4",
		Title: "IPC of k-bank confinement without refresh, normalized to 8 banks with all-bank refresh",
	}
	r.Table.Header = []string{"density", "1-bank", "2-banks", "4-banks", "8-banks(noref)"}

	ks := []int{1, 2, 4, 8}

	// Enumerate the all-bank baselines plus every k-bank confinement
	// cell up front and fan out across the worker pool.
	var jobs []cellJob
	for _, d := range config.Densities {
		for _, mix := range p.sweepMixes() {
			jobs = append(jobs,
				p.bundleJob(cellKey("base", d.String(), mix.Name), d, bundleAllBank, false, mix))
			for _, k := range ks {
				d, mix, k := d, mix, k
				jobs = append(jobs, cellJob{
					key: cellKey("conf", d.String(), mix.Name, fmt.Sprint(k)),
					cell: runner.Cell{Mix: mix.Name, Density: d.String(),
						Bundle: fmt.Sprintf("confine%d", k), Seed: p.Seed},
					run: func() (*core.Report, error) { return p.runConfined(d, mix, k) },
				})
			}
		}
	}
	reps, failed, err := p.runCells("fig4", jobs)
	if err != nil {
		return nil, err
	}
	r.Failed = failed

	for _, d := range config.Densities {
		row := []string{d.String()}
		for _, k := range ks {
			var ratios []float64
			for _, mix := range p.sweepMixes() {
				baseRep := reps[cellKey("base", d.String(), mix.Name)]
				rep := reps[cellKey("conf", d.String(), mix.Name, fmt.Sprint(k))]
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
	return r, nil
}

// runConfined runs one Figure 4 confinement cell: mix at density d with
// refresh off and every task confined to k banks per rank. Like every
// exact cell, it aborts mid-run when HardCtx ends.
func (p Params) runConfined(d config.Density, mix workload.Mix, k int) (*core.Report, error) {
	cfg := p.configFor(d, bundleNone, false)
	sys, err := core.Build(cfg, mix, core.Options{FootprintScale: p.FootprintScale, Ctx: p.HardCtx})
	if err != nil {
		return nil, fmt.Errorf("%s/%s/confine%d: %w", mix.Name, cfg.Mem.Density, k, err)
	}
	if err := sys.SetTaskMasks(confineMasks(cfg, len(sys.Kernel.Tasks()), k)); err != nil {
		return nil, err
	}
	return sys.RunWindows(p.WarmupWindows, p.MeasureWindows)
}

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
