package main

import (
	"fmt"
	"io"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports for every workload.
// Host times are normalised by the reference loop (see hostSpeed). An
// "op" is what a user waits on: a figure render for the sweeps, an HTTP
// request for serve; it is cold when it waited on a simulation, as
// every render does. README.md defines each metric precisely.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // exec → ready to work, median of several starts
	{"wall_s", "s"},       // one pass of the workload
	{"cold_p50_ms", "ms"}, // median latency of ops that waited on a simulation
	{"cold_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_gb", "GB"}, // bytes the measured process allocated in one pass
}

// layerMetrics are the per-layer metrics besides the CPU-profile
// shares. A metric with nothing to measure on a workload reads 0, as
// README.md's table lists: the serve-only ones on the sweeps, the cell
// counts on alloc.
var layerMetrics = []metricDef{
	// The first rendered figure of a pass: serve's cold fig10 on a fresh
	// daemon. One sample of a few seconds, it spread too widely across
	// runs (17% of its median on serve) to gate on.
	{"first_fig_s", "s"},
	{"cells", "count"},
	{"events", "count"},
	{"dram_requests", "count"},
	{"instructions", "count"},
	{"page_faults", "count"},
	{"sim.ns_per_event", "ns"},
	{"mc_dram.ns_per_request", "ns"},
	{"front.ns_per_kinstr", "ns"},
	{"build.ms_per_cell", "ms"},
	{"cell_p50_ms", "ms"},
	{"cell_tail_ms", "ms"},
	{"cold_samples", "count"},
	{"cold_tail_pct", "%"},
	{"host.speed", "ratio"},
	{"host.raw_wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"trace_overhead", "ratio"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"queue_wait_p50_ms", "ms"},
	{"gate_wait_p50_ms", "ms"},
	{"cache.hit_ratio", "fraction"},
	{"jobs.deduped", "count"},
	{"simulations", "count"},
	{"preemptions", "count"},
	{"shed", "count"},
	{"brownout_engagements", "count"},
}

// perLayer lists every per-layer metric a traced run reports: each
// layer's CPU share, then layerMetrics.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".share", "fraction"})
	}
	for _, s := range stackShares {
		defs = append(defs, metricDef{s.name + ".share", "fraction"})
	}
	return append(defs, layerMetrics...)
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer()...)
}

// result is one workload's outcome: its metric values by name and its
// op tally.
type result struct {
	workload string
	values   map[string]float64
	tally
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes every measured metric with its unit to out, and why ops
// failed and which outputs had no reference hash to diag.
func (r *result) print(out, diag io.Writer) {
	list := func(kind string, lines []string) {
		const maxListed = 10
		for i, l := range lines {
			if i == maxListed {
				fmt.Fprintf(diag, "%s: ... and %d more %s\n", r.workload, len(lines)-maxListed, kind)
				break
			}
			fmt.Fprintf(diag, "%s: %s %s\n", r.workload, kind, l)
		}
	}
	list("failed", r.failures)
	list("unverified", r.unverified)
	fmt.Fprintf(out, "%-10s %-24s %16.6f fraction (%d of %d ops failed)\n",
		r.workload, "error_rate", r.errorRate(), r.failed, r.attempted)
	for _, d := range allMetrics() {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(out, "%-10s %-24s %16.6f %s\n", r.workload, d.name, v, d.unit)
		}
	}
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// summary is the final output line: the defs metrics of every result,
// prefixed "<workload>/" when there is more than one, and the op tally.
func summary(results []*result, defs []metricDef) summaryLine {
	var t tally
	metrics := map[string]measure{}
	for _, r := range results {
		t.add(r.tally)
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			metrics[name] = measure{r.values[d.name], d.unit}
		}
	}
	return summaryLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// setLayerRatios derives the per-unit costs from a profile's shares and
// total CPU time and the work counted in the same interval.
func setLayerRatios(v map[string]float64, cpuNS float64, cells, events, requests, instructions uint64) {
	per := func(share float64, n uint64, unitNS float64) float64 {
		if n == 0 {
			return 0
		}
		return share * cpuNS / unitNS / float64(n)
	}
	v["sim.ns_per_event"] = per(v["sim.share"], events, 1)
	v["mc_dram.ns_per_request"] = per(v["mc.share"]+v["dram.share"], requests, 1)
	v["front.ns_per_kinstr"] = per(v["cpu.share"]+v["cache.share"]+v["workload.share"], instructions, 1e-3)
	v["build.ms_per_cell"] = per(v["build.share"], cells, 1e6)
}
