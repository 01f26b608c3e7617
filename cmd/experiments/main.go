// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [target ... | all]
//
// The targets are table1, table2, fig3, fig4, fig5, fig10, fig12,
// fig13, fig14, fig15 and ext1, run in that order by "all"; fig11 names
// fig10 (which prints Figs. 10 and 11) and extensions names ext1. -h
// lists them from the harness's target table. With no arguments it
// runs everything at the default fidelity
// (scale 64, full footprints, all ten mixes). -quick switches to a fast
// preset for smoke runs. -mode=approx answers sweep cells from the
// analytical model instead of the event-driven engine — a whole figure
// sweep in milliseconds, at the model's documented error bound. It is
// meant for the fig3/fig10/fig11/fig13 grids: cells using uncalibrated
// bundles (FGR, adaptive, OOO) or fig15's scenario mixes quarantine
// with a clear error, fig4's custom bank-mask cells always run exact,
// and energy/OS-counter breakdowns (fig5, tables) are zero in
// analytical reports. -j bounds the worker pool that runs a sweep's
// independent simulation cells; results are identical at any -j, only
// wall-clock time changes.
//
// Failure semantics are those of a real job scheduler. A failing or
// panicking cell is quarantined into the figure's failure-summary table
// and the rest of the sweep completes (the process then exits 3). With
// -journal FILE the run's result memo is kept in FILE: every cell the
// run computes is appended and fsynced as it finishes, and the cells on
// record there are answered from it — after a crash or Ctrl-C,
// rerunning with the same -journal finishes the remainder and renders
// output byte-identical to an uninterrupted run. What opening FILE
// dropped is reported in one line on stderr; a failed append names FILE
// there and exits 3 after the figures. SIGINT cancels gracefully:
// in-flight cells finish and are recorded, the rest are skipped. The
// -chaos-* flags deterministically inject faults for failure drills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"time"

	"refsched/internal/buildinfo"
	"refsched/internal/chaos"
	"refsched/internal/harness"
)

func main() {
	var (
		version = flag.Bool("version", false, "print version and exit")
		quick   = flag.Bool("quick", false, "fast preset: larger time scale, fewer mixes, scaled footprints")
		mode    = flag.String("mode", "exact", "simulation tier for sweep cells: exact (event-driven) or approx (analytical model)")
		scale   = flag.Uint64("scale", 0, "override time-scale factor (0 = preset)")
		mixes   = flag.String("mixes", "", "comma-separated mix subset, e.g. WL-1,WL-6 (empty = preset)")
		seed    = flag.Uint64("seed", 1, "random seed")
		windows = flag.Int("windows", 0, "override measurement windows (0 = preset)")
		verbose = flag.Bool("v", false, "print each run as it completes")
		jobs    = flag.Int("j", 0, "parallel simulation cells (0 = all CPUs; results identical at any -j)")

		journalPath = flag.String("journal", "", "keep every computed cell in FILE and answer the cells already recorded there (empty = no journaling)")

		chaosFrac = flag.Float64("chaos-frac", 0, "inject faults into this fraction of cells (failure drills)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for deterministic fault placement")
		chaosMode = flag.String("chaos-mode", "error", "fault shape: error|panic|stall|mixed")

		cpuprofile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to FILE")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: experiments [flags] [target ... | all]\ntargets, in the order all runs them: %s\n",
			strings.Join(harness.FigureNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	p := harness.DefaultParams()
	if *quick {
		p = harness.QuickParams()
	}
	if *scale != 0 {
		p.Scale = *scale
	}
	if *mixes != "" {
		p.Mixes = strings.Split(*mixes, ",")
	}
	if *windows != 0 {
		p.MeasureWindows = *windows
	}
	p.Seed = *seed
	if err := harness.CheckMode(*mode); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	p.Mode = *mode
	p.Verbose = *verbose
	p.Parallelism = *jobs
	var memo *harness.Memo
	if *journalPath != "" {
		m, dropped, err := harness.OpenMemo(*journalPath, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if d := dropped.String(); d != "" {
			fmt.Fprintf(os.Stderr, "experiments: %s: dropped %s\n", *journalPath, d)
		}
		memo = m
		p.Store = &harness.CellStore{Memo: memo}
	}
	if *chaosFrac > 0 {
		mode, err := chaos.ParseMode(*chaosMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		p.Chaos = chaos.New(chaos.Config{Seed: *chaosSeed, Frac: *chaosFrac, Mode: mode})
	}

	// The profile must be stopped (flushed) on every exit path, and
	// os.Exit skips deferred calls, so the stop hook is invoked
	// explicitly before each exit below.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	// SIGINT cancels gracefully: in-flight cells finish (and are
	// recorded); a second SIGINT kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	p.Ctx = ctx

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}

	start := time.Now()
	quarantined := 0
	for _, t := range targets {
		n, err := runTarget(t, p)
		quarantined += n
		if err != nil {
			stopProfile()
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted: %v\n", err)
				if *journalPath != "" {
					fmt.Fprintf(os.Stderr, "experiments: completed cells are recorded in %s; rerun with the same -journal to finish\n", *journalPath)
				}
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	stopProfile()
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d cell(s) quarantined; see the failure-summary tables above\n", quarantined)
	}
	if memo != nil && memo.Err() != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v; later cells are not on record\n", memo.Err())
		os.Exit(3)
	}
	if quarantined > 0 {
		os.Exit(3)
	}
}

// runTarget runs one CLI target through harness.RunFigure and prints it
// with harness.Render — the daemon's dispatch point and renderer, which
// is what keeps a served figure byte-identical to this CLI's output —
// and returns how many of its sweep cells were quarantined. Partial
// results (e.g. an "all" run interrupted midway) are still printed
// before the error is returned.
func runTarget(target string, p harness.Params) (int, error) {
	rs, err := harness.RunFigure(target, p)
	quarantined := 0
	for _, r := range rs {
		quarantined += len(r.Failed)
	}
	os.Stdout.Write(harness.Render(rs))
	return quarantined, err
}
