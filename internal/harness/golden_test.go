package harness

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"refsched/internal/core"
	"refsched/internal/runner"
)

// The golden files lock the rendered output of every figure driver at a
// fixed fast parameter set. They were captured before the metrics
// registry migration, so this test is the refactor's equivalence proof:
// any change to counter plumbing, snapshot/diff arithmetic, or report
// projection that perturbs a single rendered byte fails here. Regenerate
// deliberately with:
//
//	go test ./internal/harness/ -run TestGoldenFigures -update
var updateGolden = flag.Bool("update", false, "rewrite the golden figure files")

// goldenParams pins every knob that affects rendered output.
func goldenParams() Params {
	return Params{
		Scale:          4096,
		FootprintScale: 0.01,
		WarmupWindows:  1,
		MeasureWindows: 1,
		Mixes:          []string{"WL-6"},
		Seed:           1,
	}
}

// goldenFigures are the drivers under equivalence lock; "slow" ones are
// skipped under -short (mirroring the existing per-figure test gates)
// but always run in the full tier-1 suite.
var goldenFigures = []struct {
	name string
	slow bool
}{
	{"fig3", true},
	{"fig4", true},
	{"fig5", true},
	{"fig10", false},
	{"fig12", false},
	{"fig14", true},
	{"fig15", true},
	{"ext1", true},
}

func TestGoldenFigures(t *testing.T) {
	for _, f := range goldenFigures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			if f.slow && testing.Short() && !*updateGolden {
				t.Skip("slow figure sweep")
			}
			t.Parallel()
			rs, err := RunFigure(f.name, goldenParams())
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range rs {
				b.WriteString(r.String())
				b.WriteByte('\n')
			}
			got := b.String()

			path := filepath.Join("testdata", "golden", f.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to capture): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s rendered output diverged from golden:\n--- got ---\n%s\n--- want ---\n%s",
					f.name, got, want)
			}
		})
	}
}

// TestPreemptedGoldenFigures runs each golden figure twice through one
// CellStore whose Preempt stops every exact cell at its second
// checkpoint boundary. The first pass quarantines every cell with the
// preemption and leaves its snapshot in the store; the second resumes
// each one and must render the golden bytes. Every exact cell of every
// figure must be preempted exactly once: a cell that never polls the
// store can be neither preempted nor resumed.
func TestPreemptedGoldenFigures(t *testing.T) {
	for _, f := range goldenFigures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			if f.slow && testing.Short() {
				t.Skip("slow figure sweep")
			}
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", f.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}

			// One worker runs one cell at a time, so the poll knows whose
			// boundary it is: the cell the CellRunner last started.
			errPreempt := errors.New("preempted")
			var cur runner.Cell
			polls := 0
			ran := map[runner.Cell]bool{}
			preempted := map[runner.Cell]int{}
			var resumes atomic.Uint64
			p := goldenParams()
			p.Parallelism = 1
			p.Store = &CellStore{Resumes: &resumes, Preempt: func() error {
				if polls++; polls == 2 && preempted[cur] == 0 {
					preempted[cur]++
					return errPreempt
				}
				return nil
			}}
			p.CellRunner = func(ctx context.Context, _ string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
				for i := range jobs {
					run, cell := jobs[i].Run, jobs[i].Cell
					jobs[i].Run = func() (*core.Report, error) {
						cur, polls = cell, 0
						ran[cell] = true
						return run()
					}
				}
				return runner.RunBatch(ctx, jobs, opts)
			}

			rs, err := RunFigure(f.name, p)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, r := range rs {
				for _, ce := range r.Failed {
					failed++
					if !errors.Is(ce, errPreempt) {
						t.Errorf("cell %s failed with %v, want the preemption", ce.Cell, ce.Err)
					}
				}
			}
			if len(ran) == 0 && f.name != "fig5" {
				t.Fatal("the figure ran no cells through its CellRunner")
			}
			for c := range ran {
				if preempted[c] != 1 {
					t.Errorf("cell %s was preempted %d times in the first pass, want once", c, preempted[c])
				}
			}
			if failed != len(ran) {
				t.Errorf("first pass quarantined %d cells, want all %d", failed, len(ran))
			}

			rs, err = RunFigure(f.name, p)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range rs {
				b.WriteString(r.String())
				b.WriteByte('\n')
			}
			if b.String() != string(want) {
				t.Errorf("%s resumed from preemption diverged from golden:\n--- got ---\n%s\n--- want ---\n%s",
					f.name, b.String(), want)
			}
			if got := resumes.Load(); got != uint64(len(ran)) {
				t.Errorf("second pass resumed %d cells, want all %d", got, len(ran))
			}
			for c, n := range preempted {
				if n != 1 {
					t.Errorf("cell %s was preempted %d times, want once", c, n)
				}
			}
		})
	}
}
