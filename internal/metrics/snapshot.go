package metrics

import (
	"math"
	"sort"

	"refsched/internal/stats"
)

// Snapshot is a point-in-time read of every registered metric, grouped
// by kind. It marshals to stable JSON (Go sorts map keys), so a dumped
// snapshot is diffable across runs and round-trips losslessly.
type Snapshot struct {
	Counters   map[string]uint64              `json:"counters"`
	Gauges     map[string]float64             `json:"gauges,omitempty"`
	Histograms map[string]stats.HistogramView `json:"histograms,omitempty"`
}

// Snapshot reads every registered source once. Non-finite gauge values
// are dropped rather than poisoning the snapshot (they would also fail
// JSON marshaling).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{Counters: make(map[string]uint64, len(r.entries))}
	for _, e := range r.entries {
		switch e.kind {
		case KindCounter:
			s.Counters[e.name] = e.counter()
		case KindGauge:
			v := e.gauge()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if s.Gauges == nil {
				s.Gauges = map[string]float64{}
			}
			s.Gauges[e.name] = v
		case KindHistogram:
			if s.Histograms == nil {
				s.Histograms = map[string]stats.HistogramView{}
			}
			s.Histograms[e.name] = e.hist()
		}
	}
	return s
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns the named histogram's value (zero value when
// absent).
func (s Snapshot) Histogram(name string) stats.HistogramView { return s.Histograms[name] }

// Diff returns the measurement interval s − base: counters and
// histogram buckets subtract (a name missing from base counts from
// zero), gauges keep their end-of-interval value, and histogram Max
// keeps the end value (a running maximum cannot be un-observed).
func (s Snapshot) Diff(base Snapshot) Snapshot {
	d := Snapshot{Counters: make(map[string]uint64, len(s.Counters))}
	for name, v := range s.Counters {
		d.Counters[name] = v - base.Counters[name]
	}
	if s.Gauges != nil {
		d.Gauges = make(map[string]float64, len(s.Gauges))
		for name, v := range s.Gauges {
			d.Gauges[name] = v
		}
	}
	if s.Histograms != nil {
		d.Histograms = make(map[string]stats.HistogramView, len(s.Histograms))
		for name, h := range s.Histograms {
			b := base.Histograms[name]
			dh := stats.HistogramView{Width: h.Width, Over: h.Over - b.Over,
				Count: h.Count - b.Count, Sum: h.Sum - b.Sum, Max: h.Max}
			dh.Counts = make([]uint64, len(h.Counts))
			copy(dh.Counts, h.Counts)
			for i := range b.Counts {
				if i < len(dh.Counts) {
					dh.Counts[i] -= b.Counts[i]
				}
			}
			d.Histograms[name] = dh
		}
	}
	return d
}

// Names returns every metric name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
