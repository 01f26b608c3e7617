package harness

import (
	"fmt"
	"math"
	"testing"

	"refsched/internal/config"
	"refsched/internal/workload"
)

// Approx model acceptance bound, checked cell-by-cell over the fig3 and
// fig10 grids at the calibration preset: the relative error on the
// refresh-stalled read fraction, with an absolute floor of
// approxErrFloor on the denominator so near-zero cells (norefresh,
// codesign) compare on an absolute scale. The anchor densities (8 Gb,
// 32 Gb) are exact by construction; the bound is carried by the
// interpolated 16/24 Gb cells. DESIGN.md documents both numbers.
const (
	approxErrBound = 0.15
	approxErrFloor = 0.02
)

// approxValidationParams is the preset the committed traits were
// calibrated at (see approx.CalibrationParams); the error bound is only
// claimed at this preset.
func approxValidationParams() Params {
	return Params{Scale: 256, FootprintScale: 0.05, WarmupWindows: 1, MeasureWindows: 1, Seed: 1, Parallelism: 1}
}

// TestApproxValidationGrids sweeps every cell of the fig3 grid
// (retention × density × mix × {norefresh, allbank, perbank}) and the
// fig10/13 grid (mix × density × {allbank, perbank, codesign}, both
// temperatures) with the exact engine and the analytical model, and
// fails if any cell's stall-fraction error exceeds the documented
// bound. Harmonic-IPC error is reported informationally.
func TestApproxValidationGrids(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-engine sweep; skipped in -short")
	}
	p := approxValidationParams()
	ap := p
	ap.Mode = ModeApprox

	type cell struct {
		mix      workload.Mix
		d        config.Density
		b        bundle
		highTemp bool
	}
	var cells []cell
	seen := map[string]bool{}
	add := func(c cell) {
		k := fmt.Sprintf("%s|%s|%s|%v", c.mix.Name, c.d, c.b.name, c.highTemp)
		if !seen[k] {
			seen[k] = true
			cells = append(cells, c)
		}
	}
	mixes := workload.Table2()[:5] // H/M/L spectrum; full set runs in gen
	for _, highTemp := range []bool{false, true} {
		for _, d := range config.Densities {
			for _, mix := range mixes {
				// fig3 bundles.
				for _, b := range []bundle{bundleNone, bundleAllBank, bundlePerBank} {
					add(cell{mix, d, b, highTemp})
				}
			}
		}
	}
	for _, d := range []config.Density{config.Density16Gb, config.Density24Gb, config.Density32Gb} {
		for _, mix := range mixes {
			// fig10 (and fig13's high-temp variant) bundles.
			for _, highTemp := range []bool{false, true} {
				for _, b := range []bundle{bundleAllBank, bundlePerBank, bundleCoDesign} {
					add(cell{mix, d, b, highTemp})
				}
			}
		}
	}

	var maxErr, sumErr float64
	var maxCell string
	var hipcMax, hipcSum float64
	for _, c := range cells {
		exact, err := p.runCell(p.cell(c.mix, c.d, c.b, c.highTemp))
		if err != nil {
			t.Fatalf("exact %s/%s/%s: %v", c.mix.Name, c.d, c.b.name, err)
		}
		pred, err := ap.runCell(ap.cell(c.mix, c.d, c.b, c.highTemp))
		if err != nil {
			t.Fatalf("approx %s/%s/%s: %v", c.mix.Name, c.d, c.b.name, err)
		}
		relErr := math.Abs(pred.RefreshStalledFrac-exact.RefreshStalledFrac) /
			math.Max(exact.RefreshStalledFrac, approxErrFloor)
		sumErr += relErr
		if relErr > maxErr {
			maxErr = relErr
			maxCell = fmt.Sprintf("%s/%s/%s highTemp=%v (exact %.4f, approx %.4f)",
				c.mix.Name, c.d, c.b.name, c.highTemp, exact.RefreshStalledFrac, pred.RefreshStalledFrac)
		}
		hipcErr := math.Abs(pred.HarmonicIPC-exact.HarmonicIPC) / exact.HarmonicIPC
		hipcSum += hipcErr
		if hipcErr > hipcMax {
			hipcMax = hipcErr
		}
	}
	n := float64(len(cells))
	t.Logf("stall-frac relative error over %d cells: max %.3f (at %s), mean %.4f",
		len(cells), maxErr, maxCell, sumErr/n)
	t.Logf("harmonic-IPC relative error: max %.3f, mean %.4f", hipcMax, hipcSum/n)
	if maxErr > approxErrBound {
		t.Fatalf("approx stall-frac error %.3f exceeds documented bound %.2f at %s",
			maxErr, approxErrBound, maxCell)
	}
}

// TestApproxModeJournalsSeparate pins that approx and exact sweeps can
// never share a resume journal.
func TestApproxModeJournalsSeparate(t *testing.T) {
	p := approxValidationParams()
	ap := p
	ap.Mode = ModeApprox
	if p.Fingerprint() == ap.Fingerprint() {
		t.Fatal("exact and approx params share a journal fingerprint")
	}
}

// TestApproxModeUnknownRejected: a typoed mode fails loudly, not as a
// silent exact run.
func TestApproxModeUnknownRejected(t *testing.T) {
	p := approxValidationParams()
	p.Mode = "aprox"
	if _, err := p.runCell(p.cell(workload.Table2()[0], config.Density32Gb, bundleAllBank, false)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
