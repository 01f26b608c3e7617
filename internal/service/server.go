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
// (quarantine, typed *runner.CellError) as the CLI and is
// additionally subject to the daemon's global cell gate
// (highest-priority job first), taken in the CellRunner's per-cell
// wrapper, and per-cell progress streaming.
// Rendered results land in a byte-budget LRU cache keyed by the
// harness parameter fingerprint and, with a journal, are appended to it
// as they are cached, so a restarted daemon starts warm even after a
// SIGKILL. Identical in-flight requests coalesce onto one job
// (single-flight), so N concurrent requests for an uncached figure
// cost exactly one simulation. Admission control caps queue depth
// (HTTP 429 + Retry-After), and graceful shutdown drains in-flight
// jobs under a deadline, aborts what is left, and compacts the journal.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refsched/internal/cluster"
	"refsched/internal/harness"
	"refsched/internal/journal"
	"refsched/internal/metrics"
	"refsched/internal/runner"
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
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// JournalPath, when non-empty, makes the result cache durable:
	// startup warms it from this journal, every cached result is
	// appended to it, and shutdown compacts it.
	JournalPath string
	// WALPath, when non-empty, enables the job WAL: every accepted job
	// is fsynced to this ledger before it is acknowledged, and a
	// restarted daemon replays unfinished entries back onto its queue —
	// the zero-acknowledged-job-loss guarantee the soak drill asserts.
	WALPath string
	// Tenant is the per-tenant admission policy (zero value: no
	// per-tenant limits).
	Tenant TenantConfig
	// Watchdog tunes the stalled-job watchdog.
	Watchdog WatchdogConfig
	// DrainTimeout bounds how long Shutdown waits for in-flight jobs
	// before aborting them (default 30s).
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
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	c.Tenant = c.Tenant.withDefaults()
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
	// (brownout recovery, tenant-state sweeps and watchdog scans).
	loopStop chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	// runCtx is the root of every job's contexts, soft and hard, so the
	// drain deadline that cancels it aborts in-flight cells too.
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	draining  atomic.Bool

	jobsMu   sync.Mutex
	jobs     map[string]*job
	active   map[string]*job // requestKey -> queued/running job (single-flight)
	finished []string        // finished job ids, oldest first (retention ring)
	jobSeq   atomic.Uint64
	// idPrefix starts every minted job id: "job-" on a single node, and
	// "job-<node>-" on a cluster node, so any node can tell from an id
	// which node owns the job.
	idPrefix string

	log    *slog.Logger
	reqSeq atomic.Uint64 // access-log request ids

	// cluster is the node's membership/ring/fan-out state (nil when
	// clustering is off; every use is nil-safe). clusterTL records
	// node-level forward and received-cell spans.
	cluster   *cluster.Cluster
	clusterTL *timeline.Recorder

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
	preemptResumes                 atomic.Uint64 // cells resumed from a snapshot (a preemption's or a peer's)
	eventDrops                     atomic.Uint64 // slow-subscriber event drops
	simulations                    atomic.Uint64 // runner.RunBatch executions
	running                        atomic.Int64
	reg                            *metrics.Registry
	figMu                          sync.Mutex
	figs                           map[string]*figureMetrics
}

// New builds a Server, warms its cache from the journal (if
// configured), and starts its workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var jnl *journal.Journal
	var warm map[string]json.RawMessage
	if cfg.JournalPath != "" {
		var dropped journal.Discarded
		var err error
		if jnl, warm, dropped, err = journal.Open(cfg.JournalPath, cacheJournalFingerprint); err != nil {
			return nil, fmt.Errorf("service: warming cache: %w", err)
		}
		logDiscarded(cfg.Logger, "cache journal", cfg.JournalPath, dropped)
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    newJobQueue(cfg.QueueDepth),
		cache:    NewCache(cfg.CacheBytes, jnl, warm),
		gate:     newPriorityGate(cfg.CellSlots),
		tenants:  newTenantAdmission(cfg.Tenant),
		brown:    newBrownout(),
		start:    time.Now(),
		loopStop: make(chan struct{}),
		loopDone: make(chan struct{}),
		jobs:     map[string]*job{},
		idPrefix: "job-",
		active:   map[string]*job{},
		reg:      metrics.NewRegistry(),
		figs:     map[string]*figureMetrics{},
		log:      cfg.Logger,
		cluster:  cfg.Cluster,
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	if s.cluster.Enabled() {
		s.idPrefix = "job-" + s.cluster.Self().ID + "-"
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
		logDiscarded(s.log, "job wal", cfg.WALPath, journal.Discarded{Torn: wal.torn > 0})
	}
	s.registerMetrics()
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

// logDiscarded logs what opening a journal file dropped, if anything.
func logDiscarded(log *slog.Logger, what, path string, d journal.Discarded) {
	if s := d.String(); s != "" {
		log.Warn(what+" dropped records", "file", path, "dropped", s)
	}
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
		if _, n, ok := splitJobID(rec.ID); ok && n > maxSeq {
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

// splitJobID parses a job id into the node that minted it ("" for a
// single-node id) and its sequence number: the number after the last
// dash, so node ids may contain dashes themselves.
func splitJobID(id string) (node string, seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '-')
	seq, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	if i < 0 {
		return "", seq, true
	}
	return rest[:i], seq, true
}

// Shutdown drains the daemon: admission closes immediately, queued and
// running jobs get until the drain deadline (or ctx) to finish, then
// every job still running is aborted — unstarted cells are skipped and
// in-flight cells stop at their next run-leg boundary (chaos stalls at
// once). Finally the result cache's journal is compacted to the live
// entries. It returns nil when everything drained and persisted.
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
	if err := s.cache.Close(); err != nil {
		errs = append(errs, fmt.Errorf("service: persisting cache: %w", err))
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
