package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"refsched/internal/timeline"
)

// TestMain lets the test binary serve as the sweep child, which the
// benchmark starts by re-executing its own binary.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// goldenParams are internal/harness's golden-figure parameters, under
// which every sweep takes well under a second (fig5 ignores them).
var goldenParams = sweepParams{Scale: 4096, FootprintScale: 0.01, WarmupWindows: 1, MeasureWindows: 1, Mixes: []string{"WL-6"}}

// goldenReference checks the sweeps' and the daemon's figures against
// internal/harness's golden files, and the daemon's cell reports
// against the same cells simulated in this process.
func goldenReference(t *testing.T, b *bench) *reference {
	ref := &reference{Figures: map[string]string{}, Cells: map[string]string{}}
	for _, w := range workloads {
		for _, f := range w.figures {
			body, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden", f+".txt"))
			if os.IsNotExist(err) {
				continue // fig13 has no golden file
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.Figures[figureKey(f, 1)] = digest(body)
		}
	}
	for _, c := range serveCells(b.params.Mixes) {
		sha, err := b.cellDigest(c)
		if err != nil {
			t.Fatal(err)
		}
		ref.Cells[cellKey("cell", c)] = sha
	}
	return ref
}

// TestSmoke runs every workload through the real child and daemon
// processes at the golden parameters, and checks that no op fails, that
// every metric is reported, and that the traces load. alloc runs
// untraced: fig5 takes ~15 s at any parameters, and a traced run would
// take two passes; its traced path is the one grid and contended take.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	b := &bench{
		seed:     1,
		traceDir: filepath.Join(dir, "trace"),
		params:   goldenParams,
		daemonArgs: []string{"-quick", "-j", "1", "-scale", "4096", "-footprint-scale", "0.01",
			"-mixes", "WL-6", "-windows", "1"},
		serveOps:  20,
		refschedd: filepath.Join(dir, "refschedd"),
		tmp:       dir,
	}
	if err := os.Mkdir(b.traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := buildDaemon(ctx, b.refschedd); err != nil {
		t.Fatal(err)
	}
	b.ref = goldenReference(t, b)

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			b := *b
			if w.name == "alloc" {
				b.traceDir = ""
			}
			r, err := b.run(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.errorRate() != 0 {
				t.Errorf("%d of %d ops failed", r.failed, r.attempted)
			}
			for _, u := range r.unverified {
				if w.name != "grid" && w.name != "contended" {
					t.Errorf("unverified output: %s", u) // only fig13 and sweep cells lack a golden
				}
			}
			for _, d := range endToEnd {
				if v, ok := r.values[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present %v), want a positive number", d.name, v, ok)
				}
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer()} {
				line, err := json.Marshal(summary([]*result{r}, defs))
				if err != nil {
					t.Fatalf("summary line: %v", err)
				}
				var got summaryLine
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("summary lacks %s (%s)", d.name, d.unit)
					}
				}
			}
			if b.traceDir == "" {
				return
			}
			var sum float64
			for _, l := range layerNames {
				sum += r.values[l+".share"]
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("layer shares sum to %v, want 1±0.01", sum)
			}
			if _, ok := r.values["trace_overhead"]; !ok {
				t.Error("trace_overhead not reported")
			}
			f, err := os.Open(filepath.Join(b.traceDir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := timeline.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Error("empty trace")
			}
			if st, err := os.Stat(filepath.Join(b.traceDir, w.name+".cpu.pprof")); err != nil || st.Size() == 0 {
				t.Errorf("CPU profile: %v", err)
			}
		})
	}
}
