package service

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"refsched/internal/buildinfo"
	"refsched/internal/cluster"
	"refsched/internal/harness"
	"refsched/internal/metrics"
	"refsched/internal/stats"
)

// figureMetrics is one served figure's accumulated observability state:
// job latency plus the simulator-side counters of every cell computed
// for it (cache hits add nothing — they run no simulation). lat is
// guarded by Server.figMu; the counters are atomics because cells
// complete concurrently across workers.
type figureMetrics struct {
	lat *stats.Histogram
	// skips aggregates every computed cell's per-pick scheduler skip
	// histogram (core.Report.SchedSkips); guarded by Server.figMu,
	// like lat.
	skips               *stats.Histogram
	cells               atomic.Uint64
	simEvents           atomic.Uint64
	reads, writes       atomic.Uint64
	refreshCommands     atomic.Uint64
	refreshStalledReads atomic.Uint64
}

// registerMetrics binds the daemon's observability state onto its
// registry: queue shape, job outcome counters, cache behaviour, and
// uptime. Per-figure metrics register lazily in figMetrics the first
// time a figure executes.
func (s *Server) registerMetrics() {
	root := s.reg.Root()

	q := root.Sub("queue")
	q.GaugeFunc("depth", func() float64 { return float64(s.queue.len()) })
	q.GaugeFunc("capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	q.GaugeFunc("running", func() float64 { return float64(s.running.Load()) })
	q.GaugeFunc("workers", func() float64 { return float64(s.cfg.Workers) })
	q.GaugeFunc("cell_slots", func() float64 { return float64(s.cfg.CellSlots) })

	j := root.Sub("jobs")
	j.CounterFunc("enqueued", s.enqueued.Load)
	j.CounterFunc("deduped", s.dedupHits.Load)
	j.CounterFunc("cache_hits", s.cacheHits.Load)
	j.CounterFunc("completed", s.completed.Load)
	j.CounterFunc("failed", s.failed.Load)
	j.CounterFunc("quarantined", s.quarantined.Load)
	j.CounterFunc("expired", s.expired.Load)

	root.CounterFunc("simulations", s.simulations.Load)

	adm := root.Sub("admission")
	adm.CounterFunc("shed_rate", s.tenants.shedRate.Load)
	adm.CounterFunc("shed_in_flight", s.tenants.shedInFlight.Load)
	adm.CounterFunc("shed_brownout", s.brown.shed.Load)
	adm.GaugeFunc("tenants", func() float64 { return float64(s.tenants.count()) })

	b := root.Sub("brownout")
	b.GaugeFunc("engaged", func() float64 {
		if s.brown.isEngaged() {
			return 1
		}
		return 0
	})
	b.CounterFunc("engagements", s.brown.engagements.Load)
	b.CounterFunc("degraded", s.brown.degraded.Load)
	b.CounterFunc("shed", s.brown.shed.Load)

	wd := root.Sub("watchdog")
	wd.CounterFunc("kills", s.watchdogKills.Load)
	wd.CounterFunc("scans", s.watchdogScans.Load)

	pr := root.Sub("preempt")
	pr.CounterFunc("preemptions", s.preemptions.Load)
	pr.CounterFunc("resumes", s.preemptResumes.Load)

	root.Sub("http").CounterFunc("panics", s.panics.Load)
	root.Sub("events").CounterFunc("dropped", s.eventDrops.Load)

	if s.wal != nil {
		w := root.Sub("wal")
		w.CounterFunc("accepts", s.wal.accepts.Load)
		w.CounterFunc("dones", s.wal.dones.Load)
		w.CounterFunc("errors", s.wal.ioErrs.Load)
		w.CounterFunc("recovered", func() uint64 { return s.wal.recovered })
		w.CounterFunc("torn_lines", func() uint64 { return s.wal.torn })
	}

	c := root.Sub("cache")
	c.CounterFunc("hits", func() uint64 { return s.memo.Stats().Hits })
	c.CounterFunc("misses", func() uint64 { return s.memo.Stats().Misses })
	c.CounterFunc("evictions", func() uint64 { return s.memo.Stats().Evictions })
	c.GaugeFunc("entries", func() float64 { return float64(s.memo.Stats().Entries) })
	c.GaugeFunc("bytes", func() float64 { return float64(s.memo.Stats().Bytes) })
	c.GaugeFunc("budget_bytes", func() float64 { return float64(s.memo.Stats().Budget) })
	c.GaugeFunc("hit_ratio", func() float64 { return s.memo.Stats().HitRatio })

	root.GaugeFunc("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })

	if s.cluster.Enabled() {
		s.registerClusterMetrics()
	}
}

// figMetrics returns figure's metrics bundle, creating and registering
// it on first use. Creation happens under figMu; registration happens
// after releasing it, because Snapshot reads the latency histogram
// under registry.mu then figMu, and registering under figMu would take
// those locks in the opposite order. Only the inserting goroutine
// registers, so the duplicate-name panic cannot fire.
func (s *Server) figMetrics(figure string) *figureMetrics {
	s.figMu.Lock()
	fm, ok := s.figs[figure]
	if ok {
		s.figMu.Unlock()
		return fm
	}
	fm = &figureMetrics{
		lat:   stats.NewHistogram(1, 8192),
		skips: stats.NewHistogram(1, 16),
	}
	s.figs[figure] = fm
	s.figMu.Unlock()

	scope := s.reg.Root().Subf("figure[%s]", figure)
	scope.HistogramFunc("job_latency_ms", func() stats.HistogramView {
		s.figMu.Lock()
		defer s.figMu.Unlock()
		return fm.lat.View()
	})
	scope.HistogramFunc("sched_skips_per_pick", func() stats.HistogramView {
		s.figMu.Lock()
		defer s.figMu.Unlock()
		return fm.skips.View()
	})
	scope.CounterFunc("cells", fm.cells.Load)
	scope.CounterFunc("sim_events", fm.simEvents.Load)
	// Live engine throughput: events/sec summed over this figure's
	// currently running jobs (0 when none are running). The per-job
	// breakdown is in /statsz's running_jobs.
	scope.GaugeFunc("engine_events_per_sec", func() float64 {
		var eps float64
		for _, t := range s.runningThroughput() {
			if t.Figure == figure {
				eps += t.EventsPerSec
			}
		}
		return eps
	})
	scope.CounterFunc("reads", fm.reads.Load)
	scope.CounterFunc("writes", fm.writes.Load)
	scope.CounterFunc("refresh_commands", fm.refreshCommands.Load)
	scope.CounterFunc("refresh_stalled_reads", fm.refreshStalledReads.Load)
	return fm
}

// observeLatency records one job execution in the figure's histogram
// (1 ms buckets up to 8192 ms, overflow beyond).
func (s *Server) observeLatency(figure string, d time.Duration) {
	fm := s.figMetrics(figure)
	s.figMu.Lock()
	defer s.figMu.Unlock()
	fm.lat.Add(uint64(d.Milliseconds()))
}

// runningThroughput samples the engine throughput of every currently
// running job, ordered by job id. It backs the per-figure
// engine_events_per_sec gauge and /statsz's running_jobs list.
func (s *Server) runningThroughput() []JobThroughput {
	s.jobsMu.Lock()
	js := make([]*job, 0, len(s.active))
	for _, j := range s.active {
		js = append(js, j)
	}
	s.jobsMu.Unlock()
	var out []JobThroughput
	for _, j := range js {
		if t, ok := j.throughput(); ok {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Health is the /healthz payload.
type Health struct {
	Status  string         `json:"status"`
	Version buildinfo.Info `json:"version"`
	UptimeS float64        `json:"uptime_s"`
	Queued  int            `json:"queued"`
	Running int64          `json:"running"`
	// NodeID names this cluster node; absent on single-node daemons.
	NodeID string `json:"node_id,omitempty"`
}

func (s *Server) health() Health {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	h := Health{
		Status:  status,
		Version: buildinfo.Get(),
		UptimeS: time.Since(s.start).Seconds(),
		Queued:  s.queue.len(),
		Running: s.running.Load(),
	}
	if s.cluster.Enabled() {
		h.NodeID = s.cluster.Self().ID
	}
	return h
}

// LatencyStats summarizes one figure's job latencies for /statsz.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  uint64  `json:"p50_ms"`
	P90MS  uint64  `json:"p90_ms"`
	P99MS  uint64  `json:"p99_ms"`
	MaxMS  uint64  `json:"max_ms"`
}

// Stats is the /statsz payload.
type Stats struct {
	UptimeS float64 `json:"uptime_s"`
	Queue   struct {
		Depth     int   `json:"depth"`
		Capacity  int   `json:"capacity"`
		Running   int64 `json:"running"`
		Workers   int   `json:"workers"`
		CellSlots int   `json:"cell_slots"`
	} `json:"queue"`
	Jobs struct {
		Enqueued    uint64 `json:"enqueued"`
		Deduped     uint64 `json:"deduped"`
		CacheHits   uint64 `json:"cache_hits"`
		Completed   uint64 `json:"completed"`
		Failed      uint64 `json:"failed"`
		Quarantined uint64 `json:"quarantined"`
		Expired     uint64 `json:"expired"`
	} `json:"jobs"`
	// Resilience is the overload-control surface: admission sheds,
	// brownout state, watchdog activity, and recovered panics.
	Resilience struct {
		ShedRate            uint64 `json:"shed_rate"`
		ShedInFlight        uint64 `json:"shed_in_flight"`
		ShedBrownout        uint64 `json:"shed_brownout"`
		Tenants             int    `json:"tenants"`
		BrownoutEngaged     bool   `json:"brownout_engaged"`
		BrownoutEngagements uint64 `json:"brownout_engagements"`
		BrownoutDegraded    uint64 `json:"brownout_degraded"`
		WatchdogKills       uint64 `json:"watchdog_kills"`
		Preemptions         uint64 `json:"preemptions"`
		PreemptResumes      uint64 `json:"preempt_resumes"`
		HTTPPanics          uint64 `json:"http_panics"`
		EventsDropped       uint64 `json:"events_dropped"`
	} `json:"resilience"`
	Simulations uint64                  `json:"simulations"`
	Cache       harness.MemoStats       `json:"cache"`
	Figures     map[string]LatencyStats `json:"figures"`
	// Cluster is the node's membership/forwarding/fan-out block; nil
	// (omitted) on single-node daemons, keeping their /statsz payload
	// byte-identical.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// RunningJobs samples each mid-run job's engine throughput at
	// snapshot time (events executed by completed cells over wall time);
	// empty when the daemon is idle.
	RunningJobs []JobThroughput `json:"running_jobs,omitempty"`
}

// MetricsSnapshot reads the daemon's full registry — the same data
// /metricsz exposes, in structured form.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.reg.Snapshot() }

// StatsSnapshot collects the live serving metrics (also used directly
// by tests, bypassing HTTP). It is a projection of one registry
// snapshot — the /statsz and /metricsz payloads are two renderings of
// the same read — plus the ephemeral per-running-job throughput
// samples, which have no cumulative registry representation.
func (s *Server) StatsSnapshot() Stats {
	st := projectStats(s.reg.Snapshot())
	st.RunningJobs = s.runningThroughput()
	if s.cluster.Enabled() {
		cs := s.cluster.Snapshot()
		st.Cluster = &cs
	}
	return st
}

// projectStats shapes a registry snapshot into the /statsz payload.
func projectStats(snap metrics.Snapshot) Stats {
	var st Stats
	st.UptimeS = snap.Gauge("uptime_seconds")
	st.Queue.Depth = int(snap.Gauge("queue.depth"))
	st.Queue.Capacity = int(snap.Gauge("queue.capacity"))
	st.Queue.Running = int64(snap.Gauge("queue.running"))
	st.Queue.Workers = int(snap.Gauge("queue.workers"))
	st.Queue.CellSlots = int(snap.Gauge("queue.cell_slots"))
	st.Jobs.Enqueued = snap.Counter("jobs.enqueued")
	st.Jobs.Deduped = snap.Counter("jobs.deduped")
	st.Jobs.CacheHits = snap.Counter("jobs.cache_hits")
	st.Jobs.Completed = snap.Counter("jobs.completed")
	st.Jobs.Failed = snap.Counter("jobs.failed")
	st.Jobs.Quarantined = snap.Counter("jobs.quarantined")
	st.Jobs.Expired = snap.Counter("jobs.expired")
	st.Resilience.ShedRate = snap.Counter("admission.shed_rate")
	st.Resilience.ShedInFlight = snap.Counter("admission.shed_in_flight")
	st.Resilience.ShedBrownout = snap.Counter("admission.shed_brownout")
	st.Resilience.Tenants = int(snap.Gauge("admission.tenants"))
	st.Resilience.BrownoutEngaged = snap.Gauge("brownout.engaged") > 0
	st.Resilience.BrownoutEngagements = snap.Counter("brownout.engagements")
	st.Resilience.BrownoutDegraded = snap.Counter("brownout.degraded")
	st.Resilience.WatchdogKills = snap.Counter("watchdog.kills")
	st.Resilience.Preemptions = snap.Counter("preempt.preemptions")
	st.Resilience.PreemptResumes = snap.Counter("preempt.resumes")
	st.Resilience.HTTPPanics = snap.Counter("http.panics")
	st.Resilience.EventsDropped = snap.Counter("events.dropped")
	st.Simulations = snap.Counter("simulations")
	st.Cache = harness.MemoStats{
		Hits:      snap.Counter("cache.hits"),
		Misses:    snap.Counter("cache.misses"),
		Evictions: snap.Counter("cache.evictions"),
		Entries:   int(snap.Gauge("cache.entries")),
		Bytes:     int64(snap.Gauge("cache.bytes")),
		Budget:    int64(snap.Gauge("cache.budget_bytes")),
		HitRatio:  snap.Gauge("cache.hit_ratio"),
	}
	st.Figures = map[string]LatencyStats{}
	for name, h := range snap.Histograms {
		fig, ok := figureOfLatency(name)
		if !ok {
			continue
		}
		st.Figures[fig] = LatencyStats{
			Count:  h.Count,
			MeanMS: h.Mean(),
			P50MS:  h.Percentile(50),
			P90MS:  h.Percentile(90),
			P99MS:  h.Percentile(99),
			MaxMS:  h.Max,
		}
	}
	return st
}

// figureOfLatency extracts the figure name from a
// "figure[<name>].job_latency_ms" metric name.
func figureOfLatency(name string) (string, bool) {
	const pre, suf = "figure[", "].job_latency_ms"
	if strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) && len(name) > len(pre)+len(suf) {
		return name[len(pre) : len(name)-len(suf)], true
	}
	return "", false
}
