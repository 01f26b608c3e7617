// Package metrics is the simulator's unified instrumentation seam: a
// typed registry of scalar counters, gauges, and fixed-bucket
// histograms addressed by hierarchical names such as
// mc[0].bank[3].refresh_busy_cycles.
//
// The design splits cost asymmetrically. Registration (Build time, or
// lazy first-use in the daemon) takes locks and may reflect over
// structs; the measurement hot path never touches the registry at all —
// a registered counter is a plain uint64 the owning layer increments
// directly (c.Stats.Reads++), so instrumenting an event costs exactly
// one integer add and zero allocations. Reading happens through
// Registry.Snapshot, which evaluates every registered source once; the
// measurement interval is expressed as snapshot(end).Diff(snapshot(warmup))
// instead of scattered per-layer reset logic.
//
// Adding a new measurement is one registration line binding an existing
// uint64 field (CounterPtr / Struct), or a loader func (CounterFunc)
// for state other goroutines write.
package metrics

import (
	"fmt"
	"sync"

	"refsched/internal/stats"
)

// Kind classifies a registered metric.
type Kind uint8

const (
	// KindCounter is a monotonically nondecreasing uint64; interval
	// values are snapshot differences.
	KindCounter Kind = iota
	// KindGauge is an instantaneous float64 (queue depth, utilization);
	// diffing keeps the end value.
	KindGauge
	// KindHistogram is a fixed-width-bucket distribution; diffing
	// subtracts bucket-wise.
	KindHistogram
)

// String names the kind as the Prometheus exposition format spells it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric source.
type entry struct {
	name    string
	kind    Kind
	counter func() uint64
	gauge   func() float64
	hist    func() stats.HistogramView
}

// Registry holds the registered metric sources of one system (a
// simulated machine, or the serving daemon). Registration and Snapshot
// are safe for concurrent use; reading a registered source must be safe
// at Snapshot time (single-threaded simulator state qualifies because
// snapshots happen between engine steps; concurrent daemon state uses
// atomic or lock-guarded loader funcs).
type Registry struct {
	mu      sync.RWMutex
	entries []entry
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// register adds e, panicking on duplicate names: two layers silently
// sharing a name would corrupt every snapshot, so it is a programmer
// invariant, not a runtime condition.
func (r *Registry) register(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", e.name))
	}
	r.index[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Scope is a name prefix within a registry; scopes nest with '.'
// separators and cost nothing to create.
type Scope struct {
	reg    *Registry
	prefix string
}

// Root returns the registry's top-level scope.
func (r *Registry) Root() Scope { return Scope{reg: r} }

// Sub returns the child scope s.name.
func (s Scope) Sub(name string) Scope {
	return Scope{reg: s.reg, prefix: s.full(name)}
}

// Subf is Sub with fmt formatting, the idiom for indexed scopes:
// root.Subf("mc[%d]", i).
func (s Scope) Subf(format string, args ...any) Scope {
	return s.Sub(fmt.Sprintf(format, args...))
}

// full joins the scope prefix and a leaf name.
func (s Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// CounterPtr registers an existing uint64 as a counter; the owner keeps
// incrementing the field directly, the registry only reads it at
// snapshot time. This is how the per-layer stat structs are migrated
// without touching their hot paths.
func (s Scope) CounterPtr(name string, p *uint64) {
	s.reg.register(entry{name: s.full(name), kind: KindCounter, counter: func() uint64 { return *p }})
}

// CounterFunc registers a counter read through fn (atomics, or values
// needing a lock).
func (s Scope) CounterFunc(name string, fn func() uint64) {
	s.reg.register(entry{name: s.full(name), kind: KindCounter, counter: fn})
}

// GaugeFunc registers an instantaneous value read through fn.
func (s Scope) GaugeFunc(name string, fn func() float64) {
	s.reg.register(entry{name: s.full(name), kind: KindGauge, gauge: fn})
}

// Histogram registers a stats.Histogram owned by single-threaded code.
func (s Scope) Histogram(name string, h *stats.Histogram) {
	s.HistogramFunc(name, h.View)
}

// HistogramFunc registers a histogram read through fn; use it when the
// histogram needs a lock held around View.
func (s Scope) HistogramFunc(name string, fn func() stats.HistogramView) {
	s.reg.register(entry{name: s.full(name), kind: KindHistogram, hist: fn})
}
