// Command refbench is the repository's benchmark. It runs four
// workloads, each in processes of its own, checks every output against
// committed reference hashes, and prints every metric by name with its
// unit.
//
// Usage, from the repository root:
//
//	bash cmd/refbench/run.sh [-workload grid,contended,alloc,serve] [-seed N]
//	    [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	bash cmd/refbench/run.sh -update-reference
//
// The sweep workloads (grid, contended, alloc) call harness.RunFigure
// in a re-executed child of this binary, one simulation worker, and
// time every cell at the harness's Params.CellRunner seam. The serve
// workload builds the real refschedd, starts it on a loopback port and
// drives it over HTTP. Every layer is measured from outside: by timing
// calls into public functions and endpoints, and, with -trace 1, by
// CPU-profiling the measured process and recording spans around those
// calls. See README.md for the metrics and what each one should move.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 12.3, "unit": "s"}, ...}}
//
// holding the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. With more than one workload each metric
// name is prefixed "<workload>/".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// figures are the harness targets a sweep workload renders, in
	// order; nil for serve.
	figures []string
}

// workloads are the benchmark's workloads. Each stresses different
// layers (see README.md): grid many short cells, where per-cell
// construction and the cpu/cache front end dominate; contended deep
// per-bank queues, where mc/dram dominate; alloc the buddy allocator
// over GB-scale footprints with no event engine; serve the daemon's
// admission, queue, gate, cache and HTTP layers.
var workloads = []workload{
	{"grid", []string{"fig3", "fig10", "fig12", "fig13", "fig14", "ext1"}},
	{"contended", []string{"fig4"}},
	{"alloc", []string{"fig5"}},
	{"serve", nil},
}

// sweepSeed is the simulation seed of every sweep, whatever -seed says.
// A sweep's cost depends strongly on it — fig4's four WL-8 one-bank
// cells take 6.8 s at seed 2 and 3.3 s at seed 5 — so varying it from
// run to run would swamp any difference between two versions of the
// simulator. It is also the seed the reference hashes are recorded at.
const sweepSeed = 1

// bench is one benchmark invocation's configuration. The smoke test
// builds its own, with the harness's golden parameters and a reference
// taken from the golden figure files.
type bench struct {
	seed    uint64  // seeds the order of the serve workload's ops
	seconds float64 // each workload measures at least this long (0: one pass)
	// traceDir, when set, adds a traced pass per workload, writing
	// <workload>.trace.json and <workload>.cpu.pprof here.
	traceDir string
	// params are the sweeps' parameters; serve's daemon is started with
	// daemonArgs selecting the same ones, and posts cells over their
	// mixes.
	params     sweepParams
	daemonArgs []string
	serveOps   int // phase (b) operations of the serve workload
	ref        *reference
	refschedd  string // the built daemon binary; empty unless serve runs
	tmp        string // scratch directory for the daemon binary and its state
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run())
}

func run() int {
	var (
		names    = flag.String("workload", "grid,contended,alloc,serve", "comma-separated workloads to run")
		seed     = flag.Uint64("seed", 1, "seeds the order of the serve workload's ops (the sweeps always simulate at seed 1)")
		seconds  = flag.Float64("seconds", 0, "measure each workload for at least this many seconds, in whole passes (0 = one pass)")
		trace    = flag.Int("trace", 0, "1 adds a traced pass per workload and reports per-layer metrics instead of end-to-end ones")
		traceDir = flag.String("trace-dir", "refbench-trace", "where -trace 1 writes <workload>.trace.json and <workload>.cpu.pprof")
		outPath  = flag.String("out", "", "also write every measured metric of every workload to this JSON file")
		update   = flag.Bool("update-reference", false, "regenerate testdata/reference.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "refbench: usage: refbench [-workload LIST] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out FILE] [-update-reference]")
		return 2
	}
	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		w, ok := findWorkload(strings.TrimSpace(n))
		if !ok {
			fmt.Fprintf(os.Stderr, "refbench: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "refbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		seed:       *seed,
		seconds:    *seconds,
		params:     quickSweepParams(),
		daemonArgs: []string{"-quick", "-j", "1"},
		serveOps:   500,
		ref:        ref,
		tmp:        tmp,
	}
	if *update {
		if err := b.updateReference(ctx, referencePath()); err != nil {
			fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace == 1 {
		b.traceDir = *traceDir
		if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
			return 1
		}
	}
	for _, w := range selected {
		if w.figures == nil {
			b.refschedd = filepath.Join(tmp, "refschedd")
			if err := buildDaemon(ctx, b.refschedd); err != nil {
				fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
				return 1
			}
			break
		}
	}

	var results []*result
	for _, w := range selected {
		r, err := b.run(ctx, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refbench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(os.Stdout, os.Stderr)
		results = append(results, r)
	}
	if *outPath != "" {
		if err := writeResults(*outPath, b, results); err != nil {
			fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
			return 1
		}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
	}
	line, err := json.Marshal(summary(results, defs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "refbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (b *bench) run(ctx context.Context, w workload) (*result, error) {
	if w.figures == nil {
		return b.serve(ctx)
	}
	return b.sweep(ctx, w)
}

// buildDaemon builds refschedd from source into bin. It runs before any
// workload is timed.
func buildDaemon(ctx context.Context, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "refsched/cmd/refschedd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building refschedd: %w", err)
	}
	return nil
}

// writeResults writes every measured metric of every workload, with its
// op counts and unverified outputs, as JSON.
func writeResults(path string, b *bench, results []*result) error {
	type wres struct {
		Attempted  int                `json:"attempted"`
		Failed     int                `json:"failed"`
		ErrorRate  float64            `json:"error_rate"`
		Unverified []string           `json:"unverified,omitempty"`
		Metrics    map[string]measure `json:"metrics"`
	}
	out := struct {
		Seed      uint64          `json:"seed"`
		Seconds   float64         `json:"seconds"`
		Traced    bool            `json:"traced"`
		Workloads map[string]wres `json:"workloads"`
	}{b.seed, b.seconds, b.traceDir != "", map[string]wres{}}
	for _, r := range results {
		m := map[string]measure{}
		for _, d := range allMetrics() {
			if v, ok := r.values[d.name]; ok {
				m[d.name] = measure{v, d.unit}
			}
		}
		out.Workloads[r.workload] = wres{r.attempted, r.failed, r.errorRate(), r.unverified, m}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
