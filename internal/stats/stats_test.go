package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []uint64{0, 5, 9, 10, 55, 99, 1000} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	wantMean := float64(0+5+9+10+55+99+1000) / 7
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 1000)
	for v := uint64(1); v <= 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(50); p < 50 || p > 51 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(99); p < 99 || p > 100 {
		t.Fatalf("p99 = %d", p)
	}
	if h.Percentile(100) < 100 {
		t.Fatalf("p100 = %d", h.Percentile(100))
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(10, 2) // covers [0,20)
	h.Add(5)
	h.Add(500)
	if h.Percentile(100) != 500 {
		t.Fatalf("overflow percentile = %d, want max 500", h.Percentile(100))
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero width")
		}
	}()
	NewHistogram(0, 10)
}

func TestHarmonicMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 2, 2}, 2},
		{[]float64{1, 2}, 4.0 / 3},
		{[]float64{1, 0}, 0}, // zero input defined as 0
	}
	for _, c := range cases {
		if got := HarmonicMean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("HarmonicMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHarmonicLeGeoLeArith(t *testing.T) {
	// HM <= GM <= AM for positive values.
	f := func(raw []uint16) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, float64(r)+1)
		}
		if len(vs) == 0 {
			return true
		}
		hm, gm := HarmonicMean(vs), GeoMean(vs)
		var am float64
		for _, v := range vs {
			am += v
		}
		am /= float64(len(vs))
		const eps = 1e-9
		return hm <= gm+eps && gm <= am+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0}) != 0 {
		t.Fatal("degenerate geomeans should be 0")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer-name", fmt.Sprintf("%.3f", 3.14159))
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[3], "3.142") {
		t.Fatalf("float row not formatted: %q", lines[3])
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and separator widths differ:\n%s", s)
	}
}

func TestHistogramAddFloatDropsBadSamples(t *testing.T) {
	h := NewHistogram(10, 4)
	h.AddFloat(15)
	h.AddFloat(math.NaN())
	h.AddFloat(math.Inf(1))
	h.AddFloat(-1)
	if h.Count() != 1 || h.Dropped() != 3 {
		t.Fatalf("count=%d dropped=%d, want 1 and 3", h.Count(), h.Dropped())
	}
	if h.Mean() != 15 {
		t.Fatalf("mean = %v, want 15 (uncorrupted)", h.Mean())
	}
}

func TestHistogramView(t *testing.T) {
	h := NewHistogram(10, 3)
	h.Add(5)
	h.Add(25)
	h.Add(500)
	v := h.View()
	if v.Width != 10 || v.Count != 3 || v.Sum != 530 || v.Max != 500 || v.Over != 1 {
		t.Fatalf("view = %+v", v)
	}
	if len(v.Counts) != 3 || v.Counts[0] != 1 || v.Counts[2] != 1 {
		t.Fatalf("view buckets = %v", v.Counts)
	}
	// The view is a copy: mutating the histogram must not change it.
	h.Add(5)
	if v.Counts[0] != 1 {
		t.Fatal("view aliases live histogram buckets")
	}
}

func TestAggregatesRejectNonFinite(t *testing.T) {
	if v := HarmonicMean([]float64{1, math.NaN()}); v != 0 {
		t.Fatalf("HarmonicMean with NaN = %v, want 0", v)
	}
	if v := HarmonicMean([]float64{1, math.Inf(1)}); v != 0 {
		t.Fatalf("HarmonicMean with +Inf = %v, want 0", v)
	}
	if v := GeoMean([]float64{2, math.NaN()}); v != 0 {
		t.Fatalf("GeoMean with NaN = %v, want 0", v)
	}
	if v := GeoMean([]float64{2, math.Inf(1)}); v != 0 {
		t.Fatalf("GeoMean with +Inf = %v, want 0", v)
	}
}
