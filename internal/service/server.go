// Package service is the serving layer over the simulation pipeline:
// a long-running daemon (cmd/refschedd) that answers the same
// parameterized, cacheable computations the batch CLIs produce — whole
// figure sweeps and single simulation cells — in milliseconds when the
// result has been computed before and through a bounded, prioritized
// job queue when it hasn't.
//
// The serving path composes the primitives the pipeline already has:
// figure drivers run through harness.RunFigure with an injected
// CellRunner, so every sweep passes the same fault boundary
// (quarantine, retry, typed *runner.CellError) as the CLI and is
// additionally subject to the daemon's global cell gate
// (highest-priority job first) and per-cell progress streaming.
// Rendered results land in a sharded byte-budget LRU cache keyed by
// the harness parameter fingerprint; identical in-flight requests
// coalesce onto one job (single-flight), so N concurrent requests for
// an uncached figure cost exactly one simulation. Admission control
// caps queue depth (HTTP 429 + Retry-After), and graceful shutdown
// drains in-flight jobs under a deadline, then persists the cache
// through internal/journal so a restarted daemon starts warm.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refsched/internal/buildinfo"
	"refsched/internal/cluster"
	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/journal"
	"refsched/internal/metrics"
	"refsched/internal/runner"
	"refsched/internal/stats"
	"refsched/internal/timeline"
)

// cacheJournalFingerprint binds the persisted cache snapshot format.
// Request keys embed their own parameter fingerprints, so this only
// versions the snapshot encoding itself.
const cacheJournalFingerprint = "refschedd-cache-v1"

// finishedRetain bounds how many finished jobs stay addressable via
// GET /v1/jobs/{id}; beyond it the oldest are forgotten (their results
// live on in the cache).
const finishedRetain = 4096

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Params is the base simulation parameter set; requests may
	// override the result-affecting knobs per call.
	Params harness.Params
	// QueueDepth bounds queued (not yet running) jobs; admission
	// beyond it fails with 429 (default 64).
	QueueDepth int
	// Workers is how many jobs execute concurrently (default 2).
	Workers int
	// CellSlots is the global budget of concurrently simulating cells
	// shared by all running jobs, admitted highest-priority-first
	// (default GOMAXPROCS via runner.Parallelism; <0 disables the
	// gate).
	CellSlots int
	// CacheBytes / CacheShards size the result cache (defaults 64 MiB,
	// 8 shards).
	CacheBytes  int64
	CacheShards int
	// JournalPath, when non-empty, is where shutdown persists the
	// result cache and startup warms it from.
	JournalPath string
	// WALPath, when non-empty, enables the job WAL: every accepted job
	// is fsynced to this ledger before it is acknowledged, and a
	// restarted daemon replays unfinished entries back onto its queue —
	// the zero-acknowledged-job-loss guarantee the soak drill asserts.
	WALPath string
	// Tenant is the per-tenant admission policy (zero value: no
	// per-tenant limits).
	Tenant TenantConfig
	// Brownout tunes graceful degradation under queue pressure.
	Brownout BrownoutConfig
	// Watchdog tunes the stalled-job watchdog and the resilience
	// loop's tick.
	Watchdog WatchdogConfig
	// DrainTimeout bounds how long Shutdown waits for in-flight jobs
	// before cancelling them gracefully (default 30s).
	DrainTimeout time.Duration
	// Logger receives the structured access log (one request-ID-tagged
	// line per HTTP request) and job lifecycle events. Nil discards.
	Logger *slog.Logger
	// Cluster, when non-nil, makes this daemon one node of a statically
	// configured cluster: requests route to their ring owner, cache
	// misses fall back across shards, and sweeps fan their cells out to
	// peers (see internal/cluster). Nil — the default — keeps
	// single-node behavior byte-identical: no extra endpoints, headers,
	// metrics, or stats fields.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CellSlots == 0 {
		c.CellSlots = runner.Parallelism(0)
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	c.Tenant = c.Tenant.withDefaults()
	c.Brownout = c.Brownout.withDefaults()
	c.Watchdog = c.Watchdog.withDefaults()
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the daemon: an http.Handler plus the queue, workers,
// cache, and single-flight index behind it.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *jobQueue
	cache   *Cache
	gate    *priorityGate
	tenants *tenantAdmission
	brown   *brownout
	wal     *jobWAL // nil unless Config.WALPath is set
	start   time.Time

	// loopStop/loopDone bracket the resilience loop goroutine
	// (watchdog scans + brownout recovery ticks).
	loopStop chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	// runCtx cancels in-flight sweeps (graceful: in-flight cells
	// finish) when the drain deadline expires.
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	draining  atomic.Bool

	jobsMu   sync.Mutex
	jobs     map[string]*job
	active   map[string]*job // requestKey -> queued/running job (single-flight)
	finished []string        // finished job ids, oldest first (retention ring)
	jobSeq   atomic.Uint64

	log    *slog.Logger
	reqSeq atomic.Uint64 // access-log request ids

	// cluster is the node's membership/ring/fan-out state (nil when
	// clustering is off; every use is nil-safe). clusterTL records
	// node-level forward and received-cell spans; remoteJobs maps job
	// ids created via forwarded POSTs to their owning peer (guarded by
	// jobsMu, bounded like the finished ring).
	cluster        *cluster.Cluster
	clusterTL      *timeline.Recorder
	remoteJobs     map[string]string
	remoteJobOrder []string

	// Counters behind /statsz and /metricsz. The atomics are the write
	// targets; reg reads them (plus the queue, cache, and per-figure
	// state) at snapshot time, so both endpoints are projections of one
	// registry snapshot.
	enqueued, dedupHits, cacheHits atomic.Uint64
	completed, failed, quarantined atomic.Uint64
	expired                        atomic.Uint64 // jobs shed or cancelled by deadline
	panics                         atomic.Uint64 // HTTP handler panics recovered
	watchdogKills, watchdogScans   atomic.Uint64
	preemptions                    atomic.Uint64 // running jobs displaced by priority
	preemptResumes                 atomic.Uint64 // cells resumed from a preemption snapshot
	shedBrownout                   atomic.Uint64 // jobs rejected while browned out
	eventDrops                     atomic.Uint64 // slow-subscriber event drops
	simulations                    atomic.Uint64 // runner.RunBatch executions
	running                        atomic.Int64
	reg                            *metrics.Registry
	figMu                          sync.Mutex
	figs                           map[string]*figureMetrics
}

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

// New builds a Server, warms its cache from the journal (if
// configured), and starts its workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    newJobQueue(cfg.QueueDepth),
		cache:    NewCache(cfg.CacheBytes, cfg.CacheShards),
		gate:     newPriorityGate(cfg.CellSlots),
		tenants:  newTenantAdmission(cfg.Tenant),
		brown:    newBrownout(cfg.Brownout),
		start:    time.Now(),
		loopStop: make(chan struct{}),
		loopDone: make(chan struct{}),
		jobs:     map[string]*job{},
		active:   map[string]*job{},
		reg:      metrics.NewRegistry(),
		figs:     map[string]*figureMetrics{},
		log:      cfg.Logger,
		cluster:  cfg.Cluster,
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	if s.cluster.Enabled() {
		s.remoteJobs = map[string]string{}
		s.clusterTL = newClusterTimeline(s.cluster.Self().ID)
	}

	// The WAL opens before metrics registration (its counters are
	// registered) and before workers start (replayed jobs must hit the
	// queue with their original relative order intact).
	var pending []walRecord
	if cfg.WALPath != "" {
		wal, p, err := openWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		s.wal, pending = wal, p
	}
	s.registerMetrics()

	if cfg.JournalPath != "" {
		if err := s.warmCache(); err != nil {
			return nil, err
		}
	}
	s.replayWAL(pending)

	s.mux.HandleFunc("POST /v1/jobs", s.handleEnqueue)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.cluster.Enabled() {
		// Cluster-internal endpoints exist only on cluster nodes; a
		// single-node daemon's surface is unchanged.
		s.mux.HandleFunc("POST /v1/cells", s.handleCellExec)
		s.mux.HandleFunc("GET /v1/cache/{key...}", s.handleCacheGet)
		s.mux.HandleFunc("GET /v1/cluster/timeline", s.handleClusterTimeline)
		s.cluster.Start()
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.resilienceLoop()
	return s, nil
}

// replayWAL re-admits the previous process's acknowledged-but-
// unfinished jobs under their original ids. A pending record whose key
// is already active coalesces (its id is aliased to the surviving job
// and retired from the ledger); one whose result is meanwhile cached
// completes instantly. Replay bypasses admission limits — these jobs
// were admitted once already, and shedding them here would be exactly
// the acknowledged-job loss the WAL exists to prevent.
func (s *Server) replayWAL(pending []walRecord) {
	maxSeq := uint64(0)
	for _, rec := range pending {
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	// New ids must not collide with recovered ones.
	if maxSeq > s.jobSeq.Load() {
		s.jobSeq.Store(maxSeq)
	}
	for _, rec := range pending {
		adm := admitContext{tenant: rec.Tenant, recoveredID: rec.ID}
		if rec.DeadlineAt != nil {
			adm.deadline = *rec.DeadlineAt
		}
		if _, _, err := s.enqueue(*rec.Req, "wal-replay", adm); err != nil {
			// Only a request the current build no longer understands can
			// fail here; surfacing it as a lost job would be wrong, so
			// log it and retire the record.
			s.log.Error("wal replay rejected", "job", rec.ID, "err", err.Error())
			s.wal.appendDone(rec.ID)
		}
	}
}

// reqInfo identifies one HTTP request for the access log and for
// timeline correlation; handlers read it from the request context.
type reqInfo struct {
	id    string
	start time.Time
}

type reqInfoKey struct{}

func requestInfo(ctx context.Context) reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(reqInfo)
	return ri
}

// statusWriter captures the response status for the access log while
// passing streaming flushes through (the NDJSON events endpoint).
// wrote tracks whether anything reached the wire, which is what decides
// whether a recovered panic can still be turned into a clean 500.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline controls through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP tags every request with an id, dispatches it, and writes
// one structured access-log line: method, path, status, duration, and
// cache disposition (for endpoints that set X-Cache).
//
// It is also the daemon's panic boundary: a panicking handler is
// recovered into a 500 carrying the request id (when nothing has been
// written yet), counted on http.panics, and logged with its stack —
// one bad request must not take down a daemon holding a warm cache and
// a queue of other tenants' work.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ri := reqInfo{id: fmt.Sprintf("req-%06d", s.reqSeq.Add(1)), start: time.Now()}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.log.Error("handler panic",
				"request_id", ri.id, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError,
					map[string]string{"error": "internal server error", "request_id": ri.id})
			}
		}
		// Logged from the deferred path so panicking requests still get
		// their access-log line.
		attrs := []any{
			"request_id", ri.id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(ri.start).Microseconds()) / 1000,
		}
		if cache := sw.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, "cache", cache)
		}
		s.log.Info("request", attrs...)
	}()
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
	if s.cluster.Enabled() {
		// Every response names its node; a forwarded response's header
		// copy overwrites this with the executing node's id, so the
		// value always names who actually handled the request.
		sw.Header().Set(nodeHeader, s.cluster.Self().ID)
		if s.routeCluster(sw, r, ri) {
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
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
	adm.CounterFunc("shed_brownout", s.shedBrownout.Load)
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
	c.CounterFunc("hits", func() uint64 { return s.cache.Stats().Hits })
	c.CounterFunc("misses", func() uint64 { return s.cache.Stats().Misses })
	c.CounterFunc("evictions", func() uint64 { return s.cache.Stats().Evictions })
	c.GaugeFunc("entries", func() float64 { return float64(s.cache.Stats().Entries) })
	c.GaugeFunc("bytes", func() float64 { return float64(s.cache.Stats().Bytes) })
	c.GaugeFunc("budget_bytes", func() float64 { return float64(s.cache.Stats().Budget) })
	c.GaugeFunc("hit_ratio", func() float64 { return s.cache.Stats().HitRatio })

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

// warmCache loads the previous run's persisted results.
func (s *Server) warmCache() error {
	jnl, err := journal.Open(s.cfg.JournalPath, cacheJournalFingerprint)
	if err != nil {
		return fmt.Errorf("service: warming cache: %w", err)
	}
	jnl.Each(func(key string, raw json.RawMessage) {
		var body string
		if json.Unmarshal(raw, &body) == nil && body != "" {
			s.cache.Put(key, []byte(body))
		}
	})
	return nil
}

// persistCache rewrites the journal as an exact snapshot of the live
// cache (stale keys from earlier runs are dropped with the old file).
func (s *Server) persistCache() error {
	snap := s.cache.Snapshot()
	if err := os.Remove(s.cfg.JournalPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: persisting cache: %w", err)
	}
	if len(snap) == 0 {
		return nil
	}
	jnl, err := journal.Open(s.cfg.JournalPath, cacheJournalFingerprint)
	if err != nil {
		return fmt.Errorf("service: persisting cache: %w", err)
	}
	batch := make(map[string]any, len(snap))
	for k, body := range snap {
		batch[k] = string(body)
	}
	if err := jnl.RecordBatch(batch); err != nil {
		return fmt.Errorf("service: persisting cache: %w", err)
	}
	return nil
}

// Shutdown drains the daemon: admission closes immediately, queued and
// running jobs get until the drain deadline (or ctx) to finish, then
// in-flight sweeps are cancelled gracefully (in-flight cells complete,
// the rest are skipped). Finally the result cache is persisted to the
// journal. It returns nil when everything drained and persisted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.loopStop) })
	// Stop probing peers first: this node is leaving, its view of the
	// cluster no longer matters, and /healthz now answering 503 is what
	// tells the peers the same about it.
	s.cluster.Stop()
	s.queue.close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRun()
		<-done
	case <-timer.C:
		s.cancelRun()
		<-done
	}
	s.cancelRun()
	<-s.loopDone

	var errs []error
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.cfg.JournalPath != "" {
		if err := s.persistCache(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// worker executes jobs until the queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// cellRunner is the harness hook that ties a figure sweep to this
// daemon: it counts executions, publishes per-cell progress through
// the job's event hub (reusing the runner's OnDone collector), and
// routes every cell through the global priority gate.
func (s *Server) cellRunner(j *job) harness.CellRunner {
	return func(ctx context.Context, figID string, rjobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		s.simulations.Add(1)
		j.setCells(len(rjobs))
		fm := s.figMetrics(j.figure)
		orig := opts.OnDone
		opts.OnDone = func(i int, c runner.Cell, rep *core.Report) {
			if orig != nil {
				orig(i, c, rep)
			}
			if rep != nil {
				fm.cells.Add(1)
				fm.simEvents.Add(rep.Events)
				j.engineEvents.Add(rep.Events)
				fm.reads.Add(rep.Reads)
				fm.writes.Add(rep.Writes)
				fm.refreshCommands.Add(rep.RefreshCommands)
				fm.refreshStalledReads.Add(rep.RefreshStalledReads)
				s.figMu.Lock()
				fm.skips.Merge(rep.SchedSkips.View())
				s.figMu.Unlock()
			}
			j.cellDone(c)
		}
		// Each cell runs on an exclusive timeline lane for its whole
		// execution, so lane timestamps are monotone by construction;
		// the span carries the creating request's id for correlation
		// with the HTTP request span.
		for i := range rjobs {
			cell := rjobs[i].Cell
			run := rjobs[i].Run
			rjobs[i].Run = func() (*core.Report, error) {
				lane := j.acquireLane()
				t0 := j.sinceUS()
				rep, err := run()
				j.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
					Ts: t0, Dur: j.sinceUS() - t0,
					Pid: tlPidCells, Tid: lane, Name: cell.String(),
					Arg1Name: "seed", Arg1: int64(cell.Seed),
					StrName: "req", Str: j.reqID})
				j.releaseLane(lane)
				return rep, err
			}
		}
		if s.gate != nil {
			priority := j.priority
			opts.Gate = func(ctx context.Context) (func(), error) {
				t0 := j.sinceUS()
				release, err := s.gate.acquire(ctx, priority)
				if err == nil {
					j.tl.Emit(timeline.Event{Ph: timeline.PhaseInstant,
						Ts: j.sinceUS(), Pid: tlPidService, Tid: tlTidGate,
						Name: "admitted", Arg1Name: "wait_us", Arg1: int64(j.sinceUS() - t0)})
				}
				return release, err
			}
		}
		if s.cluster.FanoutEnabled() {
			// Remotable cells fan out to peers with spare capacity;
			// everything else (and every failed dispatch) runs locally
			// under the gate installed above. Results merge at their
			// submission index, so the rendered figure is byte-identical
			// to a single-node run.
			j.tl.SetProcessName(tlPidRemote, "remote cells")
			return s.cluster.RunCells(ctx, figID, j.params, j.reqID, j.priority,
				rjobs, opts, s.remoteCellObserver(j))
		}
		return runner.RunBatch(ctx, rjobs, opts)
	}
}

// execute runs one job to a terminal state.
func (s *Server) execute(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	// A job whose deadline lapsed while it sat queued is shed before it
	// burns a worker: the typed expiry is its terminal answer.
	if j.pastDeadline() {
		s.expired.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "deadline-expired", j.sinceUS())
		s.finishJob(j, JobExpired, nil, nil,
			fmt.Errorf("service: deadline expired after %s in queue: %w",
				time.Since(j.created).Round(time.Millisecond), context.DeadlineExceeded), false)
		return
	}
	j.setRunning()
	t0 := time.Now()

	// A completed identical job may have filled the cache while this
	// one sat queued. (Contains first so the common just-enqueued miss
	// does not double-count in the cache stats.)
	if s.cache.Contains(j.key) {
		if body, ok := s.cache.Get(j.key); ok {
			s.cacheHits.Add(1)
			s.completed.Add(1)
			j.tl.Instant(tlPidService, tlTidJob, "cache-hit", j.sinceUS())
			s.finishJob(j, JobDone, body, nil, nil, true)
			s.observeLatency(j.figure, time.Since(t0))
			return
		}
	}
	// Cross-shard fallback: before paying for a simulation, ask the
	// key's ring owner (one GET, never a broadcast) whether a peer
	// already computed this result — and keep a local copy so the next
	// miss here is a plain hit.
	if s.cluster.Enabled() {
		if body, peer, ok := s.remoteCacheLookup(j.key); ok {
			s.cache.Put(j.key, body)
			s.completed.Add(1)
			j.tl.Emit(timeline.Event{Ph: timeline.PhaseInstant,
				Ts: j.sinceUS(), Pid: tlPidService, Tid: tlTidJob,
				Name: "remote-cache-hit", StrName: "peer", Str: peer})
			s.finishJob(j, JobDone, body, nil, nil, true)
			s.observeLatency(j.figure, time.Since(t0))
			return
		}
	}
	runStart := j.sinceUS()

	// Per-job cancellation: the soft context (a child of the daemon's
	// drain context) lets in-flight cells finish; the hard context
	// aborts them at the next run-leg boundary and interrupts chaos
	// stalls. The job's deadline bounds both; the watchdog fires both
	// through j.kill.
	var softCtx, hardCtx context.Context
	var softCancel, hardCancel context.CancelFunc
	if j.deadline.IsZero() {
		softCtx, softCancel = context.WithCancel(s.runCtx)
		hardCtx, hardCancel = context.WithCancel(context.Background())
	} else {
		softCtx, softCancel = context.WithDeadline(s.runCtx, j.deadline)
		hardCtx, hardCancel = context.WithDeadline(context.Background(), j.deadline)
	}
	gen := j.arm(softCancel, hardCancel)
	defer func() {
		j.disarm(gen)
		softCancel()
		hardCancel()
	}()

	p := j.params
	p.Ctx = softCtx
	p.HardCtx = hardCtx
	p.CellRunner = s.cellRunner(j)

	var body []byte
	var failures []*runner.CellError
	var err error
	if j.req.Cell != nil {
		c := j.req.Cell
		var rep *core.Report
		rep, err = harness.RunCell(p, c.Mix, c.Density, c.Bundle, c.Hot)
		if err == nil {
			var raw []byte
			raw, err = json.MarshalIndent(rep, "", " ")
			body = append(raw, '\n')
		}
		var ce *runner.CellError
		if errors.As(err, &ce) {
			failures = append(failures, ce)
			err = nil
		}
	} else {
		var rs []*harness.Result
		rs, err = harness.RunFigure(j.figure, p)
		if err == nil {
			for _, r := range rs {
				failures = append(failures, r.Failed...)
			}
			body = renderResults(rs)
		}
	}

	j.tl.Emit(timeline.Event{Ph: timeline.PhaseSpan,
		Ts: runStart, Dur: j.sinceUS() - runStart,
		Pid: tlPidService, Tid: tlTidJob, Name: "run " + j.figure,
		Arg1Name: "quarantined", Arg1: int64(len(failures)),
		StrName: "req", Str: j.reqID})
	switch {
	case j.killed() != nil:
		// The watchdog's verdict wins the classification: whatever error
		// the cancellation produced downstream, the story is the kill.
		s.failed.Add(1)
		s.finishJob(j, JobFailed, nil, failures, j.killed(), false)
	case (err != nil || len(failures) > 0) && j.preemptRequested() && !j.pastDeadline():
		// A preemption request landed and the run unwound (cells abort
		// with errPreempted at their next boundary; the soft cancel skips
		// the rest). The job is not finished — its snapshots are in the
		// store, so it goes back on the queue and resumes from them. If
		// the run beat the request to completion (err and failures both
		// clean), the preemption was a no-op and the later cases classify
		// the finished result as usual.
		s.preemptions.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "preempted", j.sinceUS())
		s.requeuePreempted(j)
		s.log.Info("job preempted",
			"job", j.id, "figure", j.figure,
			"duration_ms", float64(time.Since(t0).Microseconds())/1000)
		return
	case (err != nil || len(failures) > 0) && j.pastDeadline():
		// The deadline elapsed mid-run and the cancellation unwound the
		// sweep — either as a batch-level error or as per-cell failures
		// (a single-cell job surfaces its interrupted cell that way);
		// classify as expired, not failed.
		s.expired.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "deadline-expired", j.sinceUS())
		if err == nil {
			err = context.DeadlineExceeded
		}
		s.finishJob(j, JobExpired, nil, failures,
			fmt.Errorf("service: deadline expired mid-run: %w", err), false)
	case err != nil:
		s.failed.Add(1)
		s.finishJob(j, JobFailed, nil, nil, err, false)
	case len(failures) > 0:
		// Partial results are served but never cached: the failed
		// cells should be re-attempted by the next request.
		s.quarantined.Add(1)
		s.finishJob(j, JobQuarantined, body, failures, nil, false)
	default:
		s.cache.Put(j.key, body)
		s.completed.Add(1)
		s.finishJob(j, JobDone, body, nil, nil, false)
	}
	s.observeLatency(j.figure, time.Since(t0))
	st := j.snapshot()
	s.log.Info("job finished",
		"job", j.id, "figure", j.figure, "state", st.State,
		"cells", st.CellsDone, "duration_ms", float64(time.Since(t0).Microseconds())/1000)
}

// requeuePreempted returns a displaced job to the queue. The job stays
// in the active map (coalescing requests keep landing on it, its id
// keeps answering status polls) and keeps its tenant hold and WAL
// record — it was admitted once and is still in flight, just not on a
// worker. Cell progress resets because the next run re-enumerates the
// sweep; completed cells answer instantly from the store's reports and
// the mid-cell snapshots resume the interrupted ones. Only a queue
// that closed for draining can refuse, turning the preemption into a
// terminal failure.
func (s *Server) requeuePreempted(j *job) {
	j.mu.Lock()
	j.preempt = false
	j.state = JobPreempted
	j.started = time.Time{}
	j.cellsDone, j.cellsTotal = 0, 0
	j.mu.Unlock()
	j.hub.publish(map[string]any{"event": "state", "job": j.id, "state": JobPreempted})
	if err := s.queue.forcePush(j); err != nil {
		s.failed.Add(1)
		s.finishJob(j, JobFailed, nil, nil,
			fmt.Errorf("service: preempted job could not requeue: %w", err), false)
	}
}

// finishJob moves j to a terminal state, clears its single-flight
// registration (enforcing the finished-job retention bound), returns
// its tenant's in-flight slot, and retires its WAL record.
func (s *Server) finishJob(j *job, state JobState, body []byte, failures []*runner.CellError, err error, cacheHit bool) {
	s.jobsMu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > finishedRetain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.jobsMu.Unlock()
	j.finish(state, body, failures, err, cacheHit)
	s.releaseTenantHold(j)
	j.mu.Lock()
	walAccepted := j.walAccepted
	j.mu.Unlock()
	if walAccepted && s.wal != nil {
		s.wal.appendDone(j.id)
	}
}

// observeLatency records one job execution in the figure's histogram
// (1 ms buckets up to 8192 ms, overflow beyond).
func (s *Server) observeLatency(figure string, d time.Duration) {
	fm := s.figMetrics(figure)
	s.figMu.Lock()
	defer s.figMu.Unlock()
	fm.lat.Add(uint64(d.Milliseconds()))
}

// renderResults renders figure results exactly as cmd/experiments
// prints them (fmt.Println per result), which is what makes a served
// figure byte-identical to the batch CLI's output.
func renderResults(rs []*harness.Result) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// canonicalFigure normalizes the CLI target aliases so every alias of
// one computation shares a cache entry.
func canonicalFigure(name string) string {
	switch name {
	case "fig11":
		return "fig10"
	case "extensions":
		return "ext1"
	}
	return name
}

// validFigure reports whether name is a servable target (aliases
// included).
func validFigure(name string) bool {
	name = canonicalFigure(name)
	if name == "all" {
		return true
	}
	for _, n := range harness.FigureNames() {
		if n == name {
			return true
		}
	}
	return false
}

// admitContext carries enqueue's admission inputs: who is asking
// (tenant), any absolute deadline already computed, and — for WAL
// replay only — the original job id to preserve (which also bypasses
// admission limits and queue depth; see replayWAL).
type admitContext struct {
	tenant      string
	deadline    time.Time
	recoveredID string
}

// enqueue resolves a request to a job: a coalesced in-flight job
// (single-flight), an instantly-done job on cache hit, or a freshly
// queued one. deduped reports coalescing. rid is the id of the HTTP
// request asking, recorded on a fresh job for timeline correlation.
func (s *Server) enqueue(req Request, rid string, adm admitContext) (j *job, deduped bool, err error) {
	recovered := adm.recoveredID != ""
	if s.draining.Load() && !recovered {
		return nil, false, errDraining
	}
	if (req.Figure == "") == (req.Cell == nil) {
		return nil, false, errors.New("request needs exactly one of figure or cell")
	}
	if req.DeadlineMS < 0 {
		return nil, false, errors.New("deadline_ms must be positive")
	}
	figure := "cell"
	if req.Cell == nil {
		if !validFigure(req.Figure) {
			return nil, false, fmt.Errorf("unknown figure %q (want one of %v or all)", req.Figure, harness.FigureNames())
		}
		figure = canonicalFigure(req.Figure)
	}
	params := req.Params.apply(s.cfg.Params)
	switch params.Mode {
	case "", harness.ModeExact, harness.ModeApprox:
	default:
		return nil, false, fmt.Errorf("unknown mode %q (want %q or %q)",
			params.Mode, harness.ModeExact, harness.ModeApprox)
	}
	key, err := requestKey(figure, req.Cell, params)
	if err != nil {
		return nil, false, err
	}

	// Every enqueue feeds the brownout controller, so the mode engages
	// the moment pressure crosses the threshold, not a tick later.
	s.brown.evaluate(s.queue.len(), s.cfg.QueueDepth)

	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if existing := s.active[key]; existing != nil {
		existing.addDeduped()
		s.dedupHits.Add(1)
		if recovered {
			// The replayed job's twin is already in flight; alias the
			// recovered id to it and retire the ledger record.
			s.jobs[adm.recoveredID] = existing
			s.wal.appendDone(adm.recoveredID)
		}
		return existing, true, nil
	}

	deadline := adm.deadline
	if deadline.IsZero() && req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	id := adm.recoveredID
	if id == "" {
		id = fmt.Sprintf("job-%06d", s.jobSeq.Add(1))
	}
	j = &job{
		id:       id,
		key:      key,
		figure:   figure,
		req:      req,
		params:   params,
		priority: req.Priority,
		created:  time.Now(),
		tenant:   adm.tenant,
		deadline: deadline,
		hub:      newEventHub(),
		done:     make(chan struct{}),
		state:    JobQueued,
		tl:       newJobTimeline(id),
		reqID:    rid,
	}
	j.hub.drops = &s.eventDrops
	if params.Mode != harness.ModeApprox {
		// Exact jobs run under the checkpoint driver; the store's poll is
		// where a preemption request takes effect. The leg structure is
		// invisible — a checkpointed cell's report is byte-identical to a
		// plain run's.
		j.params.Store = &harness.CellStore{Preempt: j.pollPreempt, Resumes: &s.preemptResumes}
	}
	s.enqueued.Add(1)

	// Already computed: answer without a queue trip. No WAL record is
	// needed — the result is handed back synchronously in the same
	// exchange that acknowledges the job.
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		j.tl.Instant(tlPidService, tlTidJob, "cache-hit", j.sinceUS())
		s.jobs[j.id] = j
		s.finished = append(s.finished, j.id)
		for len(s.finished) > finishedRetain {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
		j.finish(JobDone, body, nil, nil, true)
		s.completed.Add(1)
		if recovered {
			s.wal.appendDone(j.id)
		}
		return j, false, nil
	}

	// Fresh simulation work from here on: brownout shedding and the
	// per-tenant in-flight budget apply (coalescing and cache hits
	// above cost nothing and always pass). Replay bypasses both.
	// walAccepted is set before the push makes j visible to workers, so
	// a fast finish cannot race past the done-record bookkeeping.
	j.walAccepted = s.wal != nil
	if !recovered {
		if s.brown.shouldShed(req.Priority, params.Mode == harness.ModeApprox) {
			s.brown.shed.Add(1)
			s.shedBrownout.Add(1)
			return nil, false, &admissionError{
				tenant: adm.tenant, reason: "brownout", retryAfter: s.retryAfterSeconds(),
			}
		}
		if err := s.tenants.admitInFlight(adm.tenant); err != nil {
			return nil, false, err
		}
		j.tenantHeld = true
		// Acknowledgement barrier: the accept record is fsynced before
		// this job's id escapes to the client (enqueue returns only
		// after appendAccept). A WAL write failure degrades durability,
		// not service — it is logged and counted (wal.errors), and the
		// job still runs.
		if s.wal != nil {
			rec := walRecord{ID: j.id, Tenant: j.tenant, Req: &j.req}
			if !deadline.IsZero() {
				rec.DeadlineAt = &deadline
			}
			if err := s.wal.appendAccept(rec); err != nil {
				s.log.Error("wal append failed", "job", j.id, "err", err.Error())
			}
		}
		if err := s.queue.push(j); err != nil {
			s.releaseTenantHold(j)
			if s.wal != nil {
				// Never acknowledged (the caller gets the push error), so
				// retire the accept record rather than replaying a ghost.
				s.wal.appendDone(j.id)
			}
			return nil, false, err
		}
		s.maybePreempt(j)
	} else {
		s.tenants.hold(adm.tenant)
		j.tenantHeld = true
		if err := s.queue.forcePush(j); err != nil {
			s.releaseTenantHold(j)
			return nil, false, err
		}
	}

	j.tl.Instant(tlPidService, tlTidJob, "cache-miss", j.sinceUS())
	s.jobs[j.id] = j
	s.active[key] = j
	j.hub.publish(map[string]any{"event": "state", "job": j.id, "state": JobQueued})
	return j, false, nil
}

// maybePreempt runs under jobsMu after a fresh job joins the queue:
// when every worker is busy and some running exact job is strictly
// lower-priority than the arrival, the lowest-priority such job is
// asked to yield at its next checkpoint boundary. Only the request is
// posted here — the displaced job snapshots, unwinds, and requeues on
// its own worker (see execute's preempted case), and the freed worker
// then pops the highest-priority job, which is the arrival.
func (s *Server) maybePreempt(incoming *job) {
	if s.running.Load() < int64(s.cfg.Workers) {
		return
	}
	var victim *job
	for _, j := range s.active {
		if j == incoming || j.params.Store == nil || j.priority >= incoming.priority {
			continue
		}
		j.mu.Lock()
		eligible := j.state == JobRunning && j.killErr == nil && !j.preempt
		j.mu.Unlock()
		if !eligible {
			continue
		}
		if victim == nil || j.priority < victim.priority {
			victim = j
		}
	}
	if victim != nil && victim.requestPreempt() {
		s.log.Info("preempting job",
			"job", victim.id, "priority", victim.priority,
			"for", incoming.id, "incoming_priority", incoming.priority)
	}
}

// releaseTenantHold returns j's in-flight slot to its tenant, exactly
// once no matter how many paths observe the job finishing.
func (s *Server) releaseTenantHold(j *job) {
	j.mu.Lock()
	held := j.tenantHeld
	j.tenantHeld = false
	tenant := j.tenant
	j.mu.Unlock()
	if held {
		s.tenants.release(tenant)
	}
}

func (s *Server) getJob(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
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

// retryAfterSeconds estimates when queue space should free up: the
// queue's current backlog paced by the recent mean job latency across
// workers, clamped to [1s, 600s].
func (s *Server) retryAfterSeconds() int {
	meanMS := 1000.0
	s.figMu.Lock()
	var n uint64
	var sum float64
	for _, fm := range s.figs {
		n += fm.lat.Count()
		sum += fm.lat.Mean() * float64(fm.lat.Count())
	}
	s.figMu.Unlock()
	if n > 0 {
		meanMS = sum / float64(n)
	}
	secs := int(meanMS/1000*float64(s.queue.len())/float64(s.cfg.Workers)) + 1
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// writeEnqueueError maps an admission or validation failure onto the
// wire. Every rejection that a client should retry carries a
// structured body — which tenant hit which limit, and when to come
// back — so load generators and SDKs can distinguish "queue is full"
// from "you personally are over budget" from "the daemon is browned
// out" without parsing prose.
func (s *Server) writeEnqueueError(w http.ResponseWriter, err error, tenant string) {
	var ae *admissionError
	switch {
	case errors.As(err, &ae):
		retry := ae.retryAfter
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"tenant":        ae.tenant,
			"reason":        ae.reason,
			"retry_after_s": retry,
		})
	case errors.Is(err, errQueueFull):
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"tenant":        tenant,
			"reason":        "queue_full",
			"retry_after_s": retry,
		})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

// handleEnqueue is POST /v1/jobs.
func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if err := s.tenants.admitRate(tenant); err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	ri := requestInfo(r.Context())
	j, deduped, err := s.enqueue(req, ri.id, admitContext{tenant: tenant})
	if err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	recordRequestSpan(j, ri, "POST /v1/jobs", deduped)
	st := j.snapshot()
	status := http.StatusAccepted
	if deduped || st.State == JobDone {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{"id": j.id, "state": st.State, "deduped": deduped})
}

// recordRequestSpan puts one HTTP request onto a job's request track:
// a span from the request's start (clamped to the job's creation for
// the creating request) to now, carrying the request id. Coalesced
// requests are tagged so dedup fan-in is visible.
func recordRequestSpan(j *job, ri reqInfo, name string, deduped bool) {
	ts := j.tsUS(ri.start)
	e := timeline.Event{Ph: timeline.PhaseSpan,
		Ts: ts, Dur: j.sinceUS() - ts,
		Pid: tlPidService, Tid: tlTidRequests, Name: name,
		StrName: "req", Str: ri.id}
	if deduped {
		e.Arg1Name, e.Arg1 = "deduped", 1
	}
	j.tl.Emit(e)
}

// handleJobTimeline is GET /v1/jobs/{id}/timeline: the job's
// wall-clock trace as Chrome trace-event JSON, loadable in Perfetto.
// Available while the job runs (a consistent snapshot) and after it
// finishes.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.tl.WriteTo(w)
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// eventWriteTimeout bounds each NDJSON write to a streaming
// subscriber: a client that accepts the connection but stops reading
// gets its stream torn down once the socket buffer fills, instead of
// parking a handler goroutine (and its subscription) forever.
const eventWriteTimeout = 15 * time.Second

// handleJobEvents is GET /v1/jobs/{id}/events: NDJSON progress,
// replaying history then streaming live until the job finishes. Slow
// and gone consumers both release their resources: each write carries
// a deadline (see eventWriteTimeout), a disconnect cancels the
// request context, and either way the deferred cancel detaches the
// hub subscription.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	// Writers that cannot set deadlines (test recorders) just skip the
	// slow-consumer bound; the disconnect path still applies.
	defer rc.SetWriteDeadline(time.Time{})
	writeLine := func(line []byte) bool {
		rc.SetWriteDeadline(time.Now().Add(eventWriteTimeout))
		if _, err := w.Write(line); err != nil {
			return false
		}
		_, err := w.Write([]byte("\n"))
		return err == nil
	}

	replay, events, cancel := j.hub.subscribe()
	defer cancel()
	for _, line := range replay {
		if !writeLine(line) {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case line, ok := <-events:
			if !ok {
				return
			}
			if !writeLine(line) {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleFigure is GET /v1/figures/{name}: the synchronous
// cached-or-computed path. The response body is byte-identical to what
// cmd/experiments prints for the same target and parameters.
//
// ?fidelity=approx switches to the two-tier first-response mode: the
// figure is answered from the analytical model (milliseconds, served
// with "X-Fidelity: approx"), and the exact sweep is enqueued in the
// background at batch priority so a later exact request — or a poll of
// the job id returned in X-Refsched-Exact-Job — finds it computed and
// cached. The default (and ?fidelity=exact) serves the exact result
// with "X-Fidelity: exact".
//
// While the daemon is browned out, a request that did not pin a
// fidelity is automatically downgraded to the approx tier and answered
// in milliseconds, marked "X-Fidelity: approx" plus "Degraded: true";
// no background exact sweep is enqueued (that would feed the very
// queue pressure brownout is shedding). An explicit ?fidelity=exact is
// always honored.
//
// ?timeout_ms bounds the synchronous wait: past it the request gets a
// 504 carrying the job id, while the job itself keeps running and
// warming the cache for a later poll.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tenant := tenantOf(r)
	if err := s.tenants.admitRate(tenant); err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	priority := 10 // interactive requests outrank default batch jobs
	if pstr := r.URL.Query().Get("priority"); pstr != "" {
		p, err := strconv.Atoi(pstr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad priority"})
			return
		}
		priority = p
	}
	var timeout <-chan time.Time
	if tstr := r.URL.Query().Get("timeout_ms"); tstr != "" {
		ms, err := strconv.Atoi(tstr)
		if err != nil || ms <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad timeout_ms"})
			return
		}
		t := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer t.Stop()
		timeout = t.C
	}
	fidelity := r.URL.Query().Get("fidelity")
	degraded := false
	switch fidelity {
	case "":
		fidelity = harness.ModeExact
		if s.brown.isEngaged() {
			// Graceful degradation: answer from the analytical tier
			// instead of joining an already-deep queue. Every figure
			// target is approx-servable (see TestApproxCoversAllFigures).
			fidelity = harness.ModeApprox
			degraded = true
			s.brown.degraded.Add(1)
		}
	case harness.ModeExact:
	case harness.ModeApprox:
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad fidelity (want exact or approx)"})
		return
	}
	ri := requestInfo(r.Context())
	req := Request{Figure: name, Priority: priority}
	if fidelity == harness.ModeApprox {
		mode := harness.ModeApprox
		req.Params = &ParamOverrides{Mode: &mode}
		// Kick the exact sweep off behind the fast answer — unless this
		// response is already a brownout downgrade, in which case
		// enqueueing exact work would feed the overload being shed.
		// Enqueue failures (queue full, draining) only cost the
		// warm-up: the approx response below still succeeds.
		if !degraded {
			if ej, _, err := s.enqueue(Request{Figure: name}, ri.id, admitContext{tenant: tenant}); err == nil {
				w.Header().Set("X-Refsched-Exact-Job", ej.id)
			}
		}
	}
	j, deduped, err := s.enqueue(req, ri.id, admitContext{tenant: tenant})
	if err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	if degraded {
		j.tl.Instant(tlPidService, tlTidJob, "brownout-degraded", j.sinceUS())
	}
	select {
	case <-j.done:
	case <-timeout:
		// The wait bound fired first; the job still completes and warms
		// the cache, and the client can poll it by id.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": "figure not ready within timeout_ms", "job": j.id})
		return
	case <-r.Context().Done():
		// Client gave up; the job still completes and warms the cache.
		return
	}
	// Emitted after the wait, so the request span brackets the whole
	// synchronous compute-or-cached exchange.
	recordRequestSpan(j, ri, "GET /v1/figures/"+name, deduped)
	state, body, jerr := j.result()
	st := j.snapshot()
	if degraded {
		w.Header().Set("Degraded", "true")
	}
	switch state {
	case JobDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Fidelity", fidelity)
		if st.CacheHit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Write(body)
	case JobQuarantined:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Fidelity", fidelity)
		w.Header().Set("X-Refsched-Quarantined", strconv.Itoa(len(st.Quarantined)))
		w.Write(body)
	case JobExpired:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": jerr.Error(), "job": j.id})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": jerr.Error()})
	}
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
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
	Cache       CacheStats              `json:"cache"`
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
	st.Cache = CacheStats{
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

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// handleMetricsz is GET /metricsz: the registry in Prometheus text
// exposition format, for scraping. Counter families carry a refschedd_
// namespace; indexed scopes (per-figure state) become labels, e.g.
// refschedd_figure_sim_events{figure="fig10"}.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, s.reg.Snapshot(), "refschedd")
}
