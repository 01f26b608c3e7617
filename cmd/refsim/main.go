// Command refsim runs single simulations: one or more workload mixes at
// one density and policy bundle, printing the full report for each.
// With several mixes (comma-separated) the runs execute in parallel
// across -j workers; each run is deterministically seeded, so reports
// are printed in mix order and identical at any -j.
//
// Examples:
//
//	refsim -mix WL-6 -density 32 -policy allbank
//	refsim -mix WL-6 -density 32 -codesign -v
//	refsim -mix WL-1,WL-5,WL-6 -codesign -j 4
//	refsim -bench mcf,mcf,povray,povray -policy perbank -hot
//	refsim -mix WL-6 -density 24 -policy perbank -mode=approx
//
// A failing run is quarantined (reported, the other mixes still
// complete, exit 3). -metrics FILE writes the full cumulative metrics
// hierarchy (per-bank, per-controller, per-task counters) of every
// completed run as JSON keyed "slot|mix". -journal FILE keeps each
// completed run in FILE (fsynced, as experiments -journal does) and
// answers the runs already recorded there, so rerunning an interrupted
// multi-mix invocation with the same -journal finishes it with
// identical output; what opening FILE dropped is reported on stderr,
// and a failed append names FILE there and exits 3. SIGINT cancels
// gracefully: in-flight runs finish and are recorded.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"refsched"
	"refsched/internal/buildinfo"
	"refsched/internal/harness"
	"refsched/internal/runner"
)

func main() {
	var (
		version  = flag.Bool("version", false, "print version and exit")
		mixNames = flag.String("mix", "WL-1", "Table 2 mix name, or a comma-separated list to run several")
		benchCSV = flag.String("bench", "", "explicit benchmark list (overrides -mix), e.g. mcf,mcf,povray")
		density  = flag.Int("density", 32, "DRAM density in Gb (8/16/24/32)")
		policy   = flag.String("policy", "allbank", "refresh policy: none|allbank|perbank|perbankseq|oooperbank|fgr2x|fgr4x|adaptive")
		codesign = flag.Bool("codesign", false, "enable the full co-design (overrides -policy)")
		hot      = flag.Bool("hot", false, ">85C operation: 32ms retention, 2ms timeslice")
		scale    = flag.Uint64("scale", 64, "time-scale factor (1 = paper wall clock)")
		warmup   = flag.Int("warmup", 1, "warmup retention windows")
		measure  = flag.Int("measure", 2, "measured retention windows")
		fpScale  = flag.Float64("footprint-scale", 1.0, "footprint multiplier")
		seed     = flag.Uint64("seed", 1, "random seed")
		mode     = flag.String("mode", "exact", "simulation tier: exact (event-driven engine) or approx (analytical model: instant, calibrated bundles and Table 2 mixes only)")
		jobs     = flag.Int("j", 0, "parallel runs when several mixes are given (0 = all CPUs)")

		journalPath = flag.String("journal", "", "keep completed runs in FILE and answer the runs already recorded there (empty = no journaling)")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot per run to FILE (full per-bank/per-task hierarchy)")
		tlPath      = flag.String("timeline", "", "write a Perfetto-loadable timeline (Chrome trace-event JSON) per run to FILE; with several mixes each run writes FILE.<slot> (runs answered from -journal have no live system and write none)")
		ckptPath    = flag.String("checkpoint", "", "write a resumable snapshot of the running simulation to FILE at every checkpoint boundary (atomic replace; removed on clean completion); with several mixes each run writes FILE.<slot>; resume a survivor with -restore")
		ckptEvery   = flag.Uint64("checkpoint-every", 0, "checkpoint-boundary cadence in simulated cycles for -checkpoint/-restore (0 = four timeslices)")
		restorePath = flag.String("restore", "", "resume one interrupted run from the snapshot at FILE (written by -checkpoint) and print its report; the snapshot carries the machine config and mix, so the usual run flags are ignored")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if err := harness.CheckMode(*mode); err != nil {
		fatal(err)
	}
	if *mode == harness.ModeApprox {
		// The analytical model has no live system to observe.
		if *metricsPath != "" || *tlPath != "" {
			fatal(errors.New("-mode=approx has no event loop: -metrics and -timeline require -mode=exact"))
		}
		if *ckptPath != "" {
			fatal(errors.New("-mode=approx has no event loop: -checkpoint requires -mode=exact"))
		}
	}
	if *ckptPath != "" && *tlPath != "" {
		fatal(errors.New("-checkpoint is incompatible with -timeline (an observed run cannot snapshot)"))
	}

	if *restorePath != "" {
		if err := restoreRun(*restorePath, *ckptPath, *ckptEvery); err != nil {
			fatal(err)
		}
		return
	}

	mixes, err := resolveMixes(*mixNames, *benchCSV)
	if err != nil {
		fatal(err)
	}

	cfg := refsched.DefaultConfig(refsched.Density(*density), *scale)
	if *hot {
		cfg = refsched.HighTemp(cfg)
	}
	if *codesign {
		cfg = refsched.CoDesign(cfg)
	} else {
		cfg = refsched.WithRefresh(cfg, refsched.RefreshPolicy(*policy))
	}
	cfg.Seed = *seed

	// The journal keys a run by a fingerprint of every flag that changes
	// a report, so a record of another configuration never answers it,
	// followed by the run's slot and mix (runs may repeat a mix).
	// v4: the mode knob landed; approx and exact runs must never answer
	// each other.
	var memo *harness.Memo
	if *journalPath != "" {
		m, dropped, err := harness.OpenMemo(*journalPath, 0)
		if err != nil {
			fatal(err)
		}
		if d := dropped.String(); d != "" {
			fmt.Fprintf(os.Stderr, "refsim: %s: dropped %s\n", *journalPath, d)
		}
		memo = m
	}
	fp := fmt.Sprintf("v4 mode=%s density=%d policy=%s codesign=%t hot=%t scale=%d warm=%d meas=%d fp=%g seed=%d bench=%q",
		*mode, *density, *policy, *codesign, *hot, *scale, *warmup, *measure, *fpScale, *seed, *benchCSV)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Each mix is an independent, deterministically-seeded simulation;
	// fan out and print reports in mix order.
	// Per-run cumulative metrics snapshots for -metrics; each slot is
	// written only by its own run goroutine. Runs answered from the
	// journal have no live system, so their slot stays nil and is
	// omitted from the dump.
	snaps := make([]*refsched.MetricsSnapshot, len(mixes))
	runJobs := make([]runner.Job[*refsched.Report], len(mixes))
	for i := range mixes {
		run := func() (*refsched.Report, error) {
			if *mode == "approx" {
				return refsched.PredictApprox(cfg, mixes[i])
			}
			sys, err := refsched.NewSystemWithOptions(cfg, mixes[i], refsched.Options{FootprintScale: *fpScale})
			if err != nil {
				return nil, err
			}
			var tl *refsched.TimelineRecorder
			var tlFile *os.File
			if *tlPath != "" {
				path := *tlPath
				if len(mixes) > 1 {
					path = fmt.Sprintf("%s.%d", path, i)
				}
				tlFile, err = os.Create(path)
				if err != nil {
					return nil, err
				}
				defer tlFile.Close()
				if tl, err = sys.AttachTimeline(tlFile); err != nil {
					return nil, err
				}
			}
			var rep *refsched.Report
			if *ckptPath != "" {
				// Periodic crash-durable snapshot; a run that
				// completes consumes its own snapshot so a later
				// -restore never resumes finished work.
				snapPath := *ckptPath
				if len(mixes) > 1 {
					snapPath = fmt.Sprintf("%s.%d", snapPath, i)
				}
				rep, err = sys.RunWindowsCheckpointed(*warmup, *measure, checkpointCadence(*ckptEvery, cfg),
					func(st *refsched.SystemState) error { return refsched.WriteSnapshot(snapPath, st) })
				if err == nil {
					if rmErr := os.Remove(snapPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
						return nil, rmErr
					}
				}
			} else {
				rep, err = sys.RunWindows(*warmup, *measure)
			}
			if err == nil && tl != nil {
				if err := tl.Flush(); err != nil {
					return nil, fmt.Errorf("timeline: %w", err)
				}
				if err := tlFile.Close(); err != nil {
					return nil, fmt.Errorf("timeline: %w", err)
				}
			}
			if err == nil && *metricsPath != "" {
				snap := sys.MetricsSnapshot()
				snaps[i] = &snap
			}
			return rep, err
		}
		if memo != nil {
			key := fmt.Sprintf("%s|%d|%s", fp, i, mixes[i].Name)
			compute := run
			run = func() (*refsched.Report, error) { return memo.Answer(key, compute) }
		}
		runJobs[i] = runner.Job[*refsched.Report]{
			Cell: runner.Cell{Mix: mixes[i].Name, Density: fmt.Sprintf("%dGb", *density), Bundle: *policy, Seed: *seed},
			Run:  run,
		}
	}
	batch, err := runner.RunBatch(ctx, runJobs, runner.Options[*refsched.Report]{Parallelism: *jobs})
	if err != nil {
		if errors.Is(err, context.Canceled) && memo != nil {
			fmt.Fprintf(os.Stderr, "refsim: interrupted; completed runs are recorded in %s — rerun with the same -journal to finish\n", *journalPath)
			os.Exit(130)
		}
		fatal(err)
	}
	for i, rep := range batch.Results {
		if batch.OK[i] {
			printReport(rep)
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, mixes, snaps); err != nil {
			fatal(err)
		}
	}
	for _, ce := range batch.Failed {
		fmt.Fprintf(os.Stderr, "refsim: quarantined: %v\n", ce)
	}
	if memo != nil && memo.Err() != nil {
		fmt.Fprintf(os.Stderr, "refsim: %v; later runs are not on record\n", memo.Err())
		os.Exit(3)
	}
	if len(batch.Failed) > 0 {
		os.Exit(3)
	}
}

// checkpointCadence resolves -checkpoint-every: the flag when set, else
// four timeslices of the run's config.
func checkpointCadence(every uint64, cfg refsched.Config) uint64 {
	if every > 0 {
		return every
	}
	return 4 * cfg.Timeslice()
}

// restoreRun resumes one interrupted run from a -checkpoint snapshot:
// the snapshot carries the full machine (config, mix, footprint scale,
// pending events), so the restored run needs no other flags and its
// printed report is byte-identical to the uninterrupted run's. With
// -checkpoint also given, the resumed run keeps snapshotting (a restore
// can itself be interrupted and restored again). Success consumes the
// snapshot file.
func restoreRun(path, ckptPath string, every uint64) error {
	st, err := refsched.ReadSnapshot(path)
	if err != nil {
		return err
	}
	sys, err := refsched.RestoreSystem(st, refsched.Options{})
	if err != nil {
		return err
	}
	var rep *refsched.Report
	if ckptPath != "" {
		rep, err = sys.Resume(checkpointCadence(every, st.Cfg),
			func(st *refsched.SystemState) error { return refsched.WriteSnapshot(ckptPath, st) })
	} else {
		rep, err = sys.Resume(0, nil)
	}
	if err != nil {
		return err
	}
	printReport(rep)
	for _, p := range []string{path, ckptPath} {
		if p == "" {
			continue
		}
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// writeMetrics dumps each completed run's cumulative snapshot as a JSON
// object keyed "slot|mix" (runs may repeat a mix).
func writeMetrics(path string, mixes []refsched.Mix, snaps []*refsched.MetricsSnapshot) error {
	out := make(map[string]*refsched.MetricsSnapshot)
	for i, s := range snaps {
		if s != nil {
			out[fmt.Sprintf("%d|%s", i, mixes[i].Name)] = s
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printReport(rep *refsched.Report) {
	fmt.Print(rep)
	fmt.Printf("reads=%d writes=%d refreshCmds=%d refreshStalledReads=%d (%.2f%%)\n",
		rep.Reads, rep.Writes, rep.RefreshCommands, rep.RefreshStalledReads, rep.RefreshStalledFrac*100)
	fmt.Printf("sched: picks=%d eligible=%d fallback=%d bestEffort=%d skipped=%d\n",
		rep.SchedStats.Picks, rep.SchedStats.EligiblePicks, rep.SchedStats.FallbackPicks,
		rep.SchedStats.BestEffortPicks, rep.SchedStats.SkippedCandidates)
	fmt.Printf("alloc: cacheHits=%d buddyHits=%d stashed=%d fallbacks=%d\n",
		rep.AllocStats.CacheHits, rep.AllocStats.BuddyHits, rep.AllocStats.Stashed, rep.AllocStats.Fallbacks)
}

// resolveMixes parses -mix (possibly a comma-separated list) or -bench.
func resolveMixes(names, benchCSV string) ([]refsched.Mix, error) {
	if benchCSV != "" {
		mix := refsched.Mix{Name: "custom"}
		for _, b := range strings.Split(benchCSV, ",") {
			b = strings.TrimSpace(b)
			if _, err := refsched.GetBenchmark(b); err != nil {
				return nil, err
			}
			mix.Entries = append(mix.Entries, refsched.MixEntry{Bench: b, Count: 1})
		}
		return []refsched.Mix{mix}, nil
	}
	var out []refsched.Mix
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, m := range refsched.Table2() {
			if m.Name == name {
				out = append(out, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown mix %q (want WL-1..WL-10)", name)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "refsim: %v\n", err)
	os.Exit(1)
}
