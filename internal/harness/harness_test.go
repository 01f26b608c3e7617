package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"refsched/internal/config"
)

// tinyParams keeps harness tests fast: one small mix, aggressive scale.
func tinyParams() Params {
	return Params{
		Scale:          4096,
		FootprintScale: 0.01,
		WarmupWindows:  1,
		MeasureWindows: 1,
		Mixes:          []string{"WL-6"},
		Seed:           1,
	}
}

// runFigure runs a target, failing the test on error.
func runFigure(t *testing.T, name string, p Params) []*Result {
	t.Helper()
	rs, err := RunFigure(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// rendered is a target's output as cmd/experiments prints it.
func rendered(t *testing.T, name string, p Params) string {
	t.Helper()
	return string(Render(runFigure(t, name, p)))
}

// TestFigureAliases: an alias renders its target's bytes, and a name
// the target table lacks is refused, by RunFigure and CanonicalFigure
// alike.
func TestFigureAliases(t *testing.T) {
	p := tinyParams()
	p.Store = &CellStore{}
	for alias, target := range map[string]string{"fig11": "fig10", "extensions": "ext1"} {
		if got, want := rendered(t, alias, p), rendered(t, target, p); got != want {
			t.Errorf("%s rendered:\n%s\nwant %s's bytes:\n%s", alias, got, target, want)
		}
		if c, ok := CanonicalFigure(alias); c != target || !ok {
			t.Errorf("CanonicalFigure(%q) = %q, %t; want %q", alias, c, ok, target)
		}
	}
	rs, err := RunFigure("fig11b", p)
	if rs != nil || err == nil || err.Error() != `unknown target "fig11b"` {
		t.Errorf("RunFigure(fig11b) = %v, %v; want the unknown-target error", rs, err)
	}
	if c, ok := CanonicalFigure("fig11b"); ok {
		t.Errorf("CanonicalFigure(fig11b) = %q, true", c)
	}
}

// TestRunAllStopsAtFailingTarget: "all" runs the table in order and,
// when a target fails, returns the results of the targets before it
// with the error. A cancelled sweep fails fig3, the first target that
// runs cells.
func TestRunAllStopsAtFailingTarget(t *testing.T) {
	p := tinyParams()
	p.Store = &CellStore{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	rs, err := RunFigure("all", p)
	if !errors.Is(err, context.Canceled) || len(rs) != 2 || rs[0].ID != "table1" || rs[1].ID != "table2" {
		t.Fatalf("RunFigure(all) under a cancelled sweep = %d results, %v; want table1 and table2 with context.Canceled", len(rs), err)
	}
}

// TestRenderMatchesCLIFormat guards the framing the byte-identical
// guarantee depends on: each result as fmt.Println prints it.
func TestRenderMatchesCLIFormat(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.Table.Header = []string{"a"}
	r.Table.AddRow("1")
	got := Render([]*Result{r, r})
	if want := fmt.Sprintf("%v\n%v\n", r, r); string(got) != want {
		t.Fatalf("Render framing drifted:\n%q\nvs\n%q", got, want)
	}
}

func TestParamsMixSelection(t *testing.T) {
	p := tinyParams()
	ms := p.mixes()
	if len(ms) != 1 || ms[0].Name != "WL-6" {
		t.Fatalf("mixes = %v", ms)
	}
	p.Mixes = nil
	if len(p.mixes()) != 10 {
		t.Fatal("default should be all ten mixes")
	}
}

func TestConfigForBundles(t *testing.T) {
	p := tinyParams()
	cfg := p.configFor(config.Density32Gb, bundleCoDesign, false)
	if cfg.Refresh.Policy != config.RefreshPerBankSeq || !cfg.OS.RefreshAware {
		t.Fatalf("codesign bundle config = %+v", cfg.Refresh.Policy)
	}
	hot := p.configFor(config.Density32Gb, bundleAllBank, true)
	if hot.Refresh.TREFWms != 32 {
		t.Fatal("highTemp not applied")
	}
}

func TestTable1Renders(t *testing.T) {
	s := rendered(t, "table1", tinyParams())
	for _, want := range []string{"FR-FCFS", "32Gb", "tREFIab", "timeslice"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	s := rendered(t, "table2", tinyParams())
	for _, want := range []string{"WL-1", "WL-10", "mcf(8)", "H+L"} {
		if !strings.Contains(s, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig5Small(t *testing.T) {
	if testing.Short() {
		t.Skip("allocator sweeps are slow")
	}
	r := runFigure(t, "fig5", tinyParams())[0]
	if len(r.Table.Rows) < 30 {
		t.Fatalf("fig5 rows = %d", len(r.Table.Rows))
	}
	// The average row must be monotonically nondecreasing with density.
	avg := r.Table.Rows[len(r.Table.Rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row = %v", avg)
	}
}

func TestFig3Tiny(t *testing.T) {
	r := runFigure(t, "fig3", tinyParams())[0]
	// 4 densities x 2 temps.
	if len(r.Table.Rows) != 8 {
		t.Fatalf("fig3 rows = %d", len(r.Table.Rows))
	}
}

func TestFig10Tiny(t *testing.T) {
	rs := runFigure(t, "fig10", tinyParams())
	r10, r11 := rs[0], rs[1]
	if len(r10.Table.Rows) != 2 { // WL-6 + average
		t.Fatalf("fig10 rows = %d", len(r10.Table.Rows))
	}
	if len(r11.Table.Rows) != 1 {
		t.Fatalf("fig11 rows = %d", len(r11.Table.Rows))
	}
}

func TestFig14Tiny(t *testing.T) {
	r := runFigure(t, "fig14", tinyParams())[0]
	if len(r.Table.Header) != 5 {
		t.Fatalf("fig14 header = %v", r.Table.Header)
	}
}

func TestExtensionsTiny(t *testing.T) {
	r := runFigure(t, "ext1", tinyParams())[0]
	if len(r.Table.Rows) != 7 {
		t.Fatalf("ext1 rows = %d, want 7 policies", len(r.Table.Rows))
	}
	if r.Table.Rows[0][1] != "baseline" {
		t.Fatalf("first row should be the all-bank baseline: %v", r.Table.Rows[0])
	}
}

func TestSweepMixesDefaults(t *testing.T) {
	var p Params
	ms := p.sweepMixes()
	if len(ms) != 5 {
		t.Fatalf("default sweep subset = %d mixes", len(ms))
	}
	p.Mixes = []string{"WL-2"}
	if got := p.sweepMixes(); len(got) != 1 || got[0].Name != "WL-2" {
		t.Fatalf("explicit sweep selection = %v", got)
	}
}

func TestConfineMasks(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 64)
	masks := confineMasks(cfg, 8, 2)
	for i, m := range masks {
		if m.Count() != 4 { // 2 bank indices x 2 ranks
			t.Fatalf("task %d mask count = %d", i, m.Count())
		}
	}
	// Staggered: masks differ across tasks.
	if masks[0] == masks[1] {
		t.Fatal("confinement not staggered")
	}
	// k = banksPerRank keeps everything allowed.
	full := confineMasks(cfg, 2, 8)
	if full[0].Count() != 16 {
		t.Fatalf("full confinement count = %d", full[0].Count())
	}
}

func TestPctAndMean(t *testing.T) {
	if pct(0.123) != "12.3%" {
		t.Fatalf("pct = %q", pct(0.123))
	}
	for _, c := range []struct {
		vs   []float64
		prec int
		want string
	}{
		{nil, 1, "-"},
		{[]float64{1, 3}, 1, "200.0%"},
		{[]float64{0.001, 0.002}, 2, "0.15%"},
	} {
		if got := meanPct(c.vs, c.prec); got != c.want {
			t.Errorf("meanPct(%v, %d) = %q, want %q", c.vs, c.prec, got, c.want)
		}
	}
}
