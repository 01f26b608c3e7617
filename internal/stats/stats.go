// Package stats provides the summary statistics used across the
// simulator: histograms, the workload-level aggregates the paper
// reports (harmonic-mean IPC), and the text tables figures print.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bucket latency histogram with an overflow
// bucket; bucket i covers [i*Width, (i+1)*Width).
type Histogram struct {
	Width   uint64
	buckets []uint64
	over    uint64
	n       uint64
	sum     uint64
	max     uint64
	dropped uint64
}

// NewHistogram returns a histogram with nbuckets buckets of the given width.
func NewHistogram(width uint64, nbuckets int) *Histogram {
	if width == 0 || nbuckets <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Width: width, buckets: make([]uint64, nbuckets)}
}

// Add records one observation.
func (h *Histogram) Add(v uint64) {
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	i := v / h.Width
	if i >= uint64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[i]++
}

// AddFloat records a float observation, dropping NaN, ±Inf, and
// negative values (counted in Dropped) so a poisoned sample cannot
// corrupt the aggregate.
func (h *Histogram) AddFloat(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		h.dropped++
		return
	}
	h.Add(uint64(v))
}

// Dropped returns how many observations were rejected as non-finite or
// negative.
func (h *Histogram) Dropped() uint64 { return h.dropped }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// HistogramView is the value of a histogram: bucket i covers
// [i*Width, (i+1)*Width), and Over counts observations beyond the last
// bucket. It is what the metrics registry snapshots, what a report
// carries, and what a checkpoint stores.
type HistogramView struct {
	Width  uint64   `json:"width"`
	Counts []uint64 `json:"counts"`
	Over   uint64   `json:"over"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
}

// View copies the histogram's current state.
func (h *Histogram) View() HistogramView {
	v := h.view()
	v.Counts = append([]uint64(nil), v.Counts...)
	return v
}

// view is View sharing the histogram's buckets.
func (h *Histogram) view() HistogramView {
	return HistogramView{Width: h.Width, Counts: h.buckets, Over: h.over,
		Count: h.n, Sum: h.sum, Max: h.max}
}

// Merge folds a snapshot view into h bucket-wise: counts past h's
// bucket range accumulate into the overflow bucket. Empty views merge
// as a no-op (a zero-valued view carries no width to check); otherwise
// the widths must match — merging differently-shaped histograms is a
// programming error, like an invalid shape in NewHistogram.
func (h *Histogram) Merge(v HistogramView) {
	if v.Count == 0 {
		return
	}
	if v.Width != h.Width {
		panic("stats: merging histograms of different bucket widths")
	}
	for i, c := range v.Counts {
		if i < len(h.buckets) {
			h.buckets[i] += c
		} else {
			h.over += c
		}
	}
	h.over += v.Over
	h.n += v.Count
	h.sum += v.Sum
	if v.Max > h.max {
		h.max = v.Max
	}
}

// HistogramState is the complete serializable state of a histogram,
// including the dropped-sample counter the export View omits.
type HistogramState struct {
	View    HistogramView
	Dropped uint64
}

// State captures the histogram for checkpointing.
func (h *Histogram) State() HistogramState {
	return HistogramState{View: h.View(), Dropped: h.dropped}
}

// SetState overwrites the histogram's contents with a captured state.
// The shape (width, bucket count) must match the receiver's.
func (h *Histogram) SetState(st HistogramState) {
	if st.View.Width != h.Width || len(st.View.Counts) != len(h.buckets) {
		panic("stats: restoring histogram state of a different shape")
	}
	copy(h.buckets, st.View.Counts)
	h.over = st.View.Over
	h.n = st.View.Count
	h.sum = st.View.Sum
	h.max = st.View.Max
	h.dropped = st.Dropped
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 { return h.view().Mean() }

// Max returns the largest observation seen.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100)
// at bucket resolution.
func (h *Histogram) Percentile(p float64) uint64 { return h.view().Percentile(p) }

// Mean returns the mean observation, or 0 when empty.
func (v HistogramView) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count)
}

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100)
// at bucket resolution.
func (v HistogramView) Percentile(p float64) uint64 {
	if v.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(v.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range v.Counts {
		cum += c
		if cum >= target {
			return uint64(i+1) * v.Width
		}
	}
	return v.Max
}

// HarmonicMean returns the harmonic mean of vs; zero or empty inputs
// yield 0. The paper reports workload performance as the harmonic mean of
// per-task IPC.
func HarmonicMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var inv float64
	for _, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		inv += 1 / v
	}
	return float64(len(vs)) / inv
}

// GeoMean returns the geometric mean of vs (all must be positive).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var lg float64
	for _, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		lg += math.Log(v)
	}
	return math.Exp(lg / float64(len(vs)))
}

// Table is a tiny fixed-column text-table formatter used by the
// experiment harness to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
