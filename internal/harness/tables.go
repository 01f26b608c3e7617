package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/workload"
)

// table1 renders the evaluated configuration (the paper's Table 1) as
// derived from an actual config instance, so the printed values are the
// ones the simulator really uses.
func table1(p Params) ([]*Result, error) {
	cfg := config.Default(config.Density32Gb, p.Scale)
	r := &Result{ID: "table1", Title: "Evaluated configuration"}
	r.Table.Header = []string{"parameter", "value"}
	add := func(k, v string) { r.Table.AddRow(k, v) }

	// The issue width is the paper's: the core model takes its
	// throughput from BaseCPI and has no width to print.
	add("cores", fmt.Sprintf("%d @ %.1fGHz, OoO, 8-wide, ROB %d, MLP %d",
		cfg.Cores, cfg.CPUFreqGHz, cfg.ROB, cfg.MLP))
	add("L1D", fmt.Sprintf("%dKB %d-way, %d-cycle hit", cfg.L1.SizeBytes/1024, cfg.L1.Ways, cfg.L1.HitLatency))
	add("L2", fmt.Sprintf("%dMB per core %d-way, %d-cycle hit, %dB lines",
		cfg.L2.SizeBytes/(1024*1024), cfg.L2.Ways, cfg.L2.HitLatency, cfg.L2.LineBytes))
	add("memory", fmt.Sprintf("DDR3-1600, %d channel, %d DIMM/ch, %d ranks/DIMM, %d banks/rank, FR-FCFS, open row",
		cfg.Mem.Channels, cfg.Mem.DIMMsPerChannel, cfg.Mem.RanksPerDIMM, cfg.Mem.BanksPerRank))
	add("queues", fmt.Sprintf("read/write %d/%d, write watermarks %d/%d",
		cfg.Mem.ReadQueue, cfg.Mem.WriteQueue, cfg.Mem.WriteLowWater, cfg.Mem.WriteHighWater))
	add("row", fmt.Sprintf("%dKB DRAM row", cfg.Mem.RowBytes/1024))
	for _, d := range config.Densities {
		c := config.Default(d, p.Scale)
		add(fmt.Sprintf("refresh %s", d),
			fmt.Sprintf("tRFCab=%dcyc tRFCpb=%dcyc rows/bank=%dK", c.TRFCab(), c.TRFCpb(), c.Mem.RowsPerBank()/1024))
	}
	add("tREFIab", fmt.Sprintf("%d cycles (7.8us)", cfg.TREFIab()))
	add("tREFW", fmt.Sprintf("%d cycles (%.0fms / scale %d)", cfg.TREFW(), cfg.Refresh.TREFWms, cfg.Scale))
	add("timeslice", fmt.Sprintf("%d cycles (%.0fms / scale %d)", cfg.Timeslice(), cfg.OS.TimesliceMS, cfg.Scale))
	add("OS scheduler", "RR baseline / CFS co-design")
	add("allocator", "buddy baseline / soft-partitioning co-design")
	return []*Result{r}, nil
}

// table2 renders the workload mixes (the paper's Table 2),
// annotated with the modeled per-benchmark footprints.
func table2(Params) ([]*Result, error) {
	r := &Result{ID: "table2", Title: "Workload mixes (dual-core, 1:4 consolidation)"}
	r.Table.Header = []string{"mix", "benchmarks", "MPKI class"}
	for _, m := range workload.Table2() {
		var parts string
		for i, e := range m.Entries {
			if i > 0 {
				parts += ", "
			}
			parts += fmt.Sprintf("%s(%d)", e.Bench, e.Count)
		}
		r.Table.AddRow(m.Name, parts, m.Classes)
	}
	for _, name := range workload.Names() {
		b, _ := workload.Get(name)
		r.Notes = append(r.Notes, fmt.Sprintf("%s: class %s, footprint %s", b.Name, b.Class, byteSize(b.Footprint)))
	}
	return []*Result{r}, nil
}
