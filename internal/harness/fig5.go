package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/kernel/buddy"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// fig5 regenerates Figure 5: the fraction of each application's
// reference-input footprint that fits on a single DRAM bank, per device
// density. As the paper does, it exercises the modified buddy allocator
// directly: pages are requested with a possible-banks vector of
// {bank 0}; once bank 0 is exhausted the allocator falls back to other
// banks, and the on-bank-0 fraction is reported.
func fig5(p Params) ([]*Result, error) {
	r := &Result{
		ID:    "fig5",
		Title: "Fraction of footprint that fits on one bank (via allocator fall-back)",
	}
	r.Table.Header = []string{"benchmark", "footprint"}
	for _, d := range config.Densities {
		r.Table.Header = append(r.Table.Header, d.String())
	}

	// One cell per benchmark footprint, fanned out across the worker
	// pool; each cell sweeps the densities for its footprint, and stops
	// between densities once HardCtx ends.
	jobs := make([]runner.Job[[]float64], len(workload.SPECFootprints))
	for i, fe := range workload.SPECFootprints {
		jobs[i].Run = func() ([]float64, error) {
			out := make([]float64, len(config.Densities))
			for di, d := range config.Densities {
				if p.HardCtx != nil && p.HardCtx.Err() != nil {
					return nil, fmt.Errorf("fig5 %s: %w", fe.Name, p.HardCtx.Err())
				}
				frac, err := singleBankFraction(d, fe.Footprint)
				if err != nil {
					return nil, err
				}
				out[di] = frac
			}
			return out, nil
		}
	}
	b, err := runner.RunBatch(p.ctx(), jobs, runner.Options[[]float64]{Parallelism: p.Parallelism})
	if err == nil {
		err = b.Err()
	}
	if err != nil {
		return nil, err
	}
	fracs := b.Results

	sums := make([]float64, len(config.Densities))
	for i, fe := range workload.SPECFootprints {
		cells := []string{byteSize(fe.Footprint)}
		for di := range config.Densities {
			cells = append(cells, pct(fracs[i][di]))
			sums[di] += fracs[i][di]
		}
		r.Table.AddRow(append([]string{fe.Name}, cells...)...)
	}
	avg := []string{"average", ""}
	for di := range config.Densities {
		avg = append(avg, pct(sums[di]/float64(len(workload.SPECFootprints))))
	}
	r.Table.AddRow(avg...)
	r.Notes = append(r.Notes,
		"paper: on average 68% of footprints fit a single bank at 8Gb, rising with density")
	return []*Result{r}, nil
}

// singleBankFraction allocates a footprint preferring bank 0 and
// reports the fraction that landed there.
func singleBankFraction(d config.Density, footprint uint64) (float64, error) {
	cfg := config.Default(d, 1)
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		return 0, err
	}
	bud, err := buddy.New(mapper.TotalPages())
	if err != nil {
		return 0, err
	}
	alloc := buddy.NewPartitionAllocator(bud, mapper)

	pages := (footprint + cfg.Mem.RowBytes - 1) / cfg.Mem.RowBytes
	mask := buddy.BankMask(0).Set(0)
	last := -1
	var onBank0 uint64
	for i := uint64(0); i < pages; i++ {
		pfn, fellBack, ok := alloc.AllocPageFor(mask, &last)
		if !ok || fellBack {
			// Bank 0 is exhausted: every further page falls back too.
			break
		}
		if mapper.PageGlobalBank(pfn) == 0 {
			onBank0++
		}
	}
	return float64(onBank0) / float64(pages), nil
}

// byteSize renders a byte count compactly.
func byteSize(b uint64) string {
	if b >= 1<<30 {
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	}
	return fmt.Sprintf("%.0fMB", float64(b)/(1<<20))
}
