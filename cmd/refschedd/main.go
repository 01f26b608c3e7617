// Command refschedd serves the paper's experiments as a long-running
// daemon: simulation-as-a-service over HTTP/JSON on top of the same
// harness the batch CLIs use, with a bounded prioritized job queue,
// single-flight dedup of identical in-flight requests, and a
// byte-budget LRU result memo keyed by the parameter fingerprint, which
// every job asks for its cells before it simulates any.
//
// API:
//
//	POST /v1/jobs                 enqueue a figure or single-cell job
//	GET  /v1/jobs/{id}            job status (progress, typed failures)
//	GET  /v1/jobs/{id}/events     NDJSON progress stream (replay + live)
//	GET  /v1/jobs/{id}/timeline   the job's wall-clock trace (queue wait,
//	                              gate admissions, per-cell simulation
//	                              spans) as Perfetto-loadable Chrome
//	                              trace-event JSON
//	GET  /v1/figures/{name}       synchronous cached-or-computed figure;
//	                              the body is byte-identical to what
//	                              cmd/experiments prints for that target
//	GET  /healthz                 liveness + build version (+ node id when
//	                              clustered)
//	GET  /statsz                  queue depth, cache hit ratio, per-figure
//	                              latency quantiles (+ cluster block when
//	                              clustered)
//
// With -peers/-node-id, N daemons form a cluster (DESIGN.md §11):
// requests forward one hop to their key's consistent-hash owner, local
// cache misses consult the owner's cache before simulating, and sweep
// cells fan out to peers with spare -fanout slots — all of it absent
// (and the daemon byte-identical to a standalone build) without -peers.
// A clustered node's job ids name it (job-<node>-<n>), so any node
// proxies a read of a job to the node that minted its id. Clustered
// daemons additionally serve the cluster-internal endpoints
// POST /v1/cells, GET /v1/cache/{key}, and GET /v1/cluster/timeline.
//
// Admission control returns 429 + Retry-After once the queue is full,
// when a tenant (X-Tenant header) exceeds its -tenant-rate bucket or
// -tenant-max-in-flight cap, or when brownout sheds negative-priority
// exact work under queue pressure; each rejection carries a structured
// body naming the tenant, the reason, and a retry estimate. Brownout
// engages at 3/4 of -queue-depth and releases at 1/4; while browned
// out, default-fidelity figure GETs are served from the analytical
// approx tier (marked "X-Fidelity: approx" + "Degraded: true"). A
// watchdog kills jobs that finish no cell and cross no checkpoint
// boundary for -watchdog-stall, jobs accept a deadline_ms budget, and
// -job-wal makes acknowledged jobs crash durable: a SIGKILLed daemon
// replays them on restart under their original ids.
//
// -journal appends every result to a file, fsynced, as it is kept —
// each simulated cell as well as each rendered figure, in the format of
// experiments -journal, whose logs warm the daemon too — so the next
// start, after a drain or a SIGKILL, serves it instantly. SIGINT and
// SIGTERM drain: in-flight jobs get -drain to finish before they are
// aborted, then the journal is compacted to one JSON object. What
// opening -journal or -job-wal dropped, such as a torn final record, is
// logged at startup.
//
// Logging is structured (log/slog) on stderr — one request-ID-tagged
// access-log line per HTTP request — as text by default or JSON with
// -log-format json. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"refsched/internal/buildinfo"
	"refsched/internal/chaos"
	"refsched/internal/cluster"
	"refsched/internal/harness"
	"refsched/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8372", "listen address (port 0 = ephemeral; see -port-file)")
		portFile = flag.String("port-file", "", "write the bound port number to this file once listening")
		version  = flag.Bool("version", false, "print version and exit")

		quick   = flag.Bool("quick", false, "fast preset: larger time scale, fewer mixes, scaled footprints")
		scale   = flag.Uint64("scale", 0, "override time-scale factor (0 = preset)")
		mixes   = flag.String("mixes", "", "comma-separated mix subset, e.g. WL-1,WL-6 (empty = preset)")
		windows = flag.Int("windows", 0, "override measurement windows (0 = preset)")
		fpScale = flag.Float64("footprint-scale", 0, "override footprint multiplier (0 = preset)")
		seed    = flag.Uint64("seed", 1, "random seed")

		jobs       = flag.Int("j", 0, "global budget of concurrently simulating cells (0 = all CPUs, <0 = unbounded)")
		workers    = flag.Int("workers", 0, "jobs executing concurrently (0 = default 2)")
		queueDepth = flag.Int("queue-depth", 0, "queued-job bound before 429 (0 = default 64)")
		cacheMB    = flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = default 64)")
		journal    = flag.String("journal", "", "append every result here, fsynced, and warm from it on start; compacted on shutdown")
		jobWAL     = flag.String("job-wal", "", "acknowledged-job write-ahead log; accepted jobs survive a crash and replay on restart")
		drain      = flag.Duration("drain", 0, "how long shutdown waits for in-flight jobs (0 = default 30s)")

		tenantRate     = flag.Float64("tenant-rate", 0, "per-tenant sustained admission rate in req/s (0 = unlimited)")
		tenantBurst    = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = max(1, ceil(rate)))")
		tenantInFlight = flag.Int("tenant-max-in-flight", 0, "per-tenant queued+running job cap (0 = unlimited)")

		watchdogStall = flag.Duration("watchdog-stall", 0, "kill a running job after this long with no cell finished and no checkpoint boundary crossed (0 = default 30s)")

		chaosFrac  = flag.Float64("chaos-frac", 0, "fraction of simulation cells to fault-inject, in [0,1] (0 = off)")
		chaosMode  = flag.String("chaos-mode", "error", "injected fault shape: error|panic|stall|mixed")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault placement seed")
		chaosStall = flag.Duration("chaos-stall", 0, "stall-mode sleep per faulted cell (0 = default 10ms)")

		peers  = flag.String("peers", "", "cluster membership as id=host:port,... including this node (empty = single-node)")
		nodeID = flag.String("node-id", "", "this node's id within -peers (required with -peers)")
		fanout = flag.Int("fanout", 2, "per-peer cap on concurrently dispatched remote sweep cells (0 = no fan-out)")

		logFormat = flag.String("log-format", "text", "structured log encoding on stderr: text|json")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "refschedd: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "refschedd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	p := harness.DefaultParams()
	if *quick {
		p = harness.QuickParams()
	}
	if *scale != 0 {
		p.Scale = *scale
	}
	if *mixes != "" {
		p.Mixes = strings.Split(*mixes, ",")
	}
	if *windows != 0 {
		p.MeasureWindows = *windows
	}
	if *fpScale != 0 {
		p.FootprintScale = *fpScale
	}
	p.Seed = *seed

	if *chaosFrac > 0 {
		mode, err := chaos.ParseMode(*chaosMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refschedd: %v\n", err)
			os.Exit(2)
		}
		p.Chaos = chaos.New(chaos.Config{
			Seed:  *chaosSeed,
			Frac:  *chaosFrac,
			Mode:  mode,
			Stall: *chaosStall,
		})
	}

	var clu *cluster.Cluster
	if *peers != "" {
		members, err := cluster.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "refschedd: %v\n", err)
			os.Exit(2)
		}
		clu, err = cluster.New(cluster.Config{
			NodeID:        *nodeID,
			Peers:         members,
			FanoutPerPeer: *fanout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "refschedd: %v\n", err)
			os.Exit(2)
		}
	} else if *nodeID != "" {
		fmt.Fprintln(os.Stderr, "refschedd: -node-id requires -peers")
		os.Exit(2)
	}

	svc, err := service.New(service.Config{
		Params:       p,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		CellSlots:    *jobs,
		CacheBytes:   *cacheMB << 20,
		JournalPath:  *journal,
		WALPath:      *jobWAL,
		DrainTimeout: *drain,
		Logger:       log,
		Cluster:      clu,
		Tenant: service.TenantConfig{
			Rate:        *tenantRate,
			Burst:       *tenantBurst,
			MaxInFlight: *tenantInFlight,
		},
		Watchdog: service.WatchdogConfig{Stall: *watchdogStall},
	})
	if err != nil {
		log.Error("startup failed", "error", err)
		os.Exit(1)
	}

	// The profiling endpoints mount on an outer mux so the service
	// handler (and its access log) stays unaware of them; without
	// -pprof the paths simply 404.
	var root http.Handler = svc
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		root = mux
	}

	// Catch SIGTERM/SIGINT before the port becomes visible: a
	// supervisor may signal as soon as the port file appears or
	// /healthz answers, and a signal that arrived before the handler
	// would kill the process undrained with no -journal write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(strconv.Itoa(port)+"\n"), 0o644); err != nil {
			log.Error("writing port file failed", "path", *portFile, "error", err)
			os.Exit(1)
		}
	}
	if clu != nil {
		log.Info("clustered", "node", *nodeID, "peers", len(clu.Members())-1, "fanout", *fanout)
	}
	log.Info("listening", "addr", ln.Addr().String(),
		"version", buildinfo.Get().String(), "pprof", *pprofOn)

	httpSrv := &http.Server{Handler: root}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Error("serve failed", "error", err)
		os.Exit(1)
	}
	stop()

	// Drain: finish in-flight jobs (bounded by -drain, then aborted),
	// compact the cache journal, then let in-flight HTTP responses flush.
	log.Info("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), svcDrainBudget(*drain))
	defer cancel()
	if err := svc.Shutdown(shutCtx); err != nil {
		log.Error("drain failed", "error", err)
		httpSrv.Shutdown(shutCtx)
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Error("http shutdown failed", "error", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}

// svcDrainBudget gives the whole shutdown sequence a hard ceiling a
// little past the service drain deadline, at which Shutdown aborts
// every job still running.
func svcDrainBudget(drain time.Duration) time.Duration {
	if drain <= 0 {
		drain = 30 * time.Second
	}
	return drain + 15*time.Second
}
