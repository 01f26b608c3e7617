# Development targets. The simulation itself needs only the Go toolchain.

GO ?= go

# Pinned staticcheck, fetched through the module proxy on demand. Kept
# out of go.mod so the simulator itself stays dependency-free.
STATICCHECK = $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: build test short race bench serve ci staticcheck regen-output timeline-demo soak soak-short cluster-smoke cluster-demo checkpoint-smoke reuse-smoke resume-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The parallel experiment runner fans simulation cells out across
# goroutines; run the full suite under the race detector after touching
# the runner, the harness drivers, or anything they share.
race:
	$(GO) test -race -timeout 60m ./...

# Run the simulation-as-a-service daemon on the default port with a
# persistent result cache (warm restarts). See README "Serving mode".
serve:
	$(GO) run ./cmd/refschedd -journal refschedd.cache.json

# Lint with the pinned staticcheck. Fetching it needs the module
# proxy, so offline environments skip with a warning instead of
# failing the gate; CI always has network and runs it for real.
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable (offline?); skipping"; \
	fi

# The merge gate: gofmt (any file `gofmt -l` lists fails it), build,
# vet, staticcheck, the short test suite, every golden figure (-short
# checks eight of the nine and skips only fig5, whose page-by-page
# allocation takes ~5 s of the ~6 s all nine take) rendered plainly,
# again from its memo alone, and again after every exact cell was
# preempted at its second checkpoint boundary and resumed (~5 s),
# then the race detector over the concurrency-bearing packages (the worker
# pool, the fault injector, the journal, the event engine — which also
# guards the hot path's 0 allocs/op via
# TestEngineScheduleIsAllocationFree — and the serving daemon) and over
# the harness's CellStore tests (the store and result memo a sweep's
# workers share; the whole harness suite is too slow for the race list) and over core's
# checkpoint/resume contract tests (a 32 Gb cell; its snapshots stay
# small because the page allocator's state is one count of the pages
# it handed out), the daemon smoke
# drill (the real binary on an ephemeral port, /healthz, a
# figure round-trip through the cache, and a SIGTERM drain to exit 0)
# with its durability twin (SIGKILL after a sweep, then a warm restart
# on the same -journal answers it as a hit with zero simulations) and
# its one-file twin (a daemon warmed from an experiments -journal log
# serves that run's fig10 bytes without simulating a cell), the
# on-disk checkpoint drill (checkpoint-smoke, ~2 s), the cross-figure
# reuse drill (reuse-smoke, a few seconds), the kill-and-resume drill
# (resume-smoke, a few seconds), and finally the refbench
# module's own tests (~20 s; it is a separate module, so ./... above
# does not reach it).
ci:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) test -short ./...
	$(GO) test -count=1 -run 'TestGoldenFigures|TestPreemptedGoldenFigures' ./internal/harness/
	$(GO) test -race -timeout 10m ./internal/runner/ ./internal/chaos/ ./internal/journal/ ./internal/sim/ ./internal/service/ ./internal/timeline/ ./internal/cluster/ ./cmd/refload/
	$(GO) test -race -count=1 -run 'TestCellStore' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestCheckpointResumeByteIdentical|TestResumeWithFurtherCheckpoints' ./internal/core/
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestDaemonKillWarmRestart|TestCLIJournalWarmsDaemon' ./cmd/refschedd/
	$(MAKE) checkpoint-smoke
	$(MAKE) reuse-smoke
	$(MAKE) resume-smoke
	cd cmd/refbench && $(GO) test -count=1 .

# The overload/chaos drill (see EXPERIMENTS.md "Soak drill"): refload
# drives thousands of mixed multi-tenant requests at a small-queue
# daemon under stall chaos until brownout engages, the daemon is
# SIGKILLed with acknowledged jobs pending, and a warm restart on the
# same job WAL must replay every one of them to a terminal state (zero
# acknowledged-job loss) and answer the reference figure byte-for-byte
# identically; a final phase proves the stalled-job watchdog kills
# wedged jobs within its bound. soak-short is the ~1k-request variant
# scheduled CI runs.
soak:
	REFSCHED_SOAK=full $(GO) test -count=1 -timeout 20m -v -run 'TestSoak' ./cmd/refschedd/

soak-short:
	REFSCHED_SOAK=short $(GO) test -count=1 -timeout 10m -run 'TestSoak' ./cmd/refschedd/

# The multi-node drills (see EXPERIMENTS.md "Cluster walkthrough"): a
# real 3-node cluster over localhost — consistent-hash routing, the
# cross-shard cache fallback served as a hit through a non-owner, clean
# SIGTERM drains — plus the degraded-mode acceptance: a fanned-out fig10
# sweep with one peer SIGKILLed mid-sweep must render byte-identical to
# a single-node daemon.
cluster-smoke:
	$(GO) test -count=1 -timeout 15m -run 'TestClusterSmoke|TestClusterKillNodeByteIdentical' ./cmd/refschedd/

# Run a local 3-node cluster to poke at by hand: three daemons on fixed
# ports sharing one -peers list, with cell fan-out enabled. Ctrl-C stops
# all three. Try:
#   curl -i localhost:8371/v1/figures/fig10   # note X-Refsched-Node
#   curl -s localhost:8372/statsz | grep -A4 '"cluster"'
cluster-demo:
	@trap 'kill 0' INT TERM; \
	PEERS=a=127.0.0.1:8371,b=127.0.0.1:8372,c=127.0.0.1:8373; \
	$(GO) build -o /tmp/refschedd-demo ./cmd/refschedd; \
	/tmp/refschedd-demo -addr 127.0.0.1:8371 -quick -peers $$PEERS -node-id a -fanout 2 & \
	/tmp/refschedd-demo -addr 127.0.0.1:8372 -quick -peers $$PEERS -node-id b -fanout 2 & \
	/tmp/refschedd-demo -addr 127.0.0.1:8373 -quick -peers $$PEERS -node-id c -fanout 2 & \
	wait

# The checkpoint/restore drill (see EXPERIMENTS.md "Checkpoint/
# restore" and DESIGN.md §12): run a reference simulation, run the
# identical simulation again with -checkpoint and SIGKILL it as soon as
# the first snapshot lands, then -restore the survivor and require the
# resumed report byte-identical to the uninterrupted one. It runs twice:
# per-bank refresh under the round-robin scheduler, then the co-design,
# whose snapshot holds non-empty CFS runqueues. Each run is 24M cycles
# long and writes its first snapshot 1M cycles in; checkpointed, it
# lasts about 0.7 s on a 2-vCPU host, so the 0.05 s poll kills it with a
# wide margin. The race-list packages in `ci` already cover the
# preempt-and-resume paths; this target proves the on-disk snapshot
# survives a hard kill.
checkpoint-smoke:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/refsim ./cmd/refsim; \
	for pol in "-policy perbank" "-codesign"; do \
		run="$$dir/refsim -mix WL-1 -density 8 $$pol -scale 512 -footprint-scale 0.02 -warmup 0 -measure 60"; \
		rm -f $$dir/c.snap; \
		$$run > $$dir/ref.json; \
		$$run -checkpoint $$dir/c.snap -checkpoint-every 1000000 > /dev/null 2>&1 & pid=$$!; \
		i=0; while [ ! -s $$dir/c.snap ] && [ $$i -lt 600 ]; do sleep 0.05; i=$$((i+1)); done; \
		kill -9 $$pid 2>/dev/null || { echo "checkpoint-smoke: run finished before SIGKILL landed (no snapshot left to restore)" >&2; exit 1; }; \
		wait $$pid 2>/dev/null || true; \
		[ -s $$dir/c.snap ] || { echo "checkpoint-smoke: no snapshot was written" >&2; exit 1; }; \
		$$dir/refsim -restore $$dir/c.snap > $$dir/resumed.json; \
		cmp $$dir/ref.json $$dir/resumed.json; \
		echo "checkpoint-smoke: $$pol: SIGKILL mid-run + restore is byte-identical"; \
	done

# The cross-figure reuse drill (see DESIGN.md §9 "Cross-figure
# reuse"): render the grid figures once in one process, where a figure
# is answered from the cells an earlier figure simulated, and once as
# one process per figure, where every cell is simulated. The two
# outputs, less their wall-clock `total:` lines, must be byte-identical.
reuse-smoke:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/experiments ./cmd/experiments; \
	run="$$dir/experiments -quick -j 2 -mixes WL-6"; \
	figs="fig3 fig10 fig12 fig13 fig14 ext1"; \
	$$run $$figs > $$dir/one.out; \
	for f in $$figs; do $$run $$f; done > $$dir/six.out; \
	grep -v '^total:' $$dir/one.out > $$dir/one.txt; \
	grep -v '^total:' $$dir/six.out > $$dir/six.txt; \
	cmp $$dir/one.txt $$dir/six.txt; \
	echo "reuse-smoke: six figures render the same bytes in one process as in six"

# The kill-and-resume drill (see README "Fault tolerance: quarantine
# and resume"): render two figures once uninterrupted, then run them
# again with -journal F and SIGKILL the run as soon as F holds a
# record. The kill may tear F's final record, which the rerun drops.
# A rerun on the same -journal must finish the sweep, appending the
# cells the killed run did not record, and print the uninterrupted
# output byte for byte, less the wall-clock `total:` lines; a third run
# over the finished F must add no record to it. The 27 cells take about
# 2 s at -j 2 on a 2-vCPU host and the first record lands after one
# cell, so the 0.05 s poll kills the run mid-sweep with a wide margin;
# a run that finishes first, or a kill after its last record, fails
# the drill.
resume-smoke:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/experiments ./cmd/experiments; \
	run="$$dir/experiments -quick -j 2 -mixes WL-6"; \
	figs="fig3 fig10"; log=$$dir/cells.json; \
	$$run $$figs | grep -v '^total:' > $$dir/ref.txt; \
	$$run -journal $$log $$figs > /dev/null 2>&1 & pid=$$!; \
	i=0; while ! grep -qs '"key"' $$log && [ $$i -lt 600 ]; do sleep 0.05; i=$$((i+1)); done; \
	kill -9 $$pid 2>/dev/null || true; \
	st=0; wait $$pid 2>/dev/null || st=$$?; \
	[ $$st -eq 137 ] || { echo "resume-smoke: the journaled run exited $$st before SIGKILL landed" >&2; exit 1; }; \
	cp $$log $$dir/killed.json; \
	$$run -journal $$log $$figs | grep -v '^total:' > $$dir/resumed.txt; \
	cmp $$dir/ref.txt $$dir/resumed.txt; \
	! cmp -s $$log $$dir/killed.json || { echo "resume-smoke: the SIGKILL landed after the last record; nothing was resumed" >&2; exit 1; }; \
	cp $$log $$dir/finished.json; \
	$$run -journal $$log $$figs | grep -v '^total:' > $$dir/again.txt; \
	cmp $$dir/ref.txt $$dir/again.txt; \
	cmp $$log $$dir/finished.json || { echo "resume-smoke: a run over the finished journal added records" >&2; exit 1; }; \
	echo "resume-smoke: SIGKILL mid-sweep + rerun on the same -journal is byte-identical; a finished journal answers every cell"

# Write the pair of Perfetto timelines EXPERIMENTS.md walks through:
# the same mix under rotating per-bank refresh (baseline) and under the
# full co-design's sequential schedule. Load either file at
# https://ui.perfetto.dev to compare the DRAM refresh tracks against
# the per-core quantum tracks.
timeline-demo:
	$(GO) run ./cmd/refsim -mix WL-6 -density 32 -policy perbank \
		-scale 512 -footprint-scale 0.05 -warmup 0 -measure 1 \
		-timeline timeline_perbank.json
	$(GO) run ./cmd/refsim -mix WL-6 -density 32 -codesign \
		-scale 512 -footprint-scale 0.05 -warmup 0 -measure 1 \
		-timeline timeline_codesign.json
	@echo "wrote timeline_perbank.json and timeline_codesign.json — open in https://ui.perfetto.dev"

# One regeneration per figure benchmark plus the substrate
# microbenchmarks (allocs/op for the event-engine hot path).
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$'

# Regenerate the raw experiment output EXPERIMENTS.md cites (the quick
# preset's full grid, then the per-mix figures over all ten mixes).
# The artifact is regenerable and therefore gitignored, not committed.
regen-output:
	$(GO) run ./cmd/experiments -quick all > experiments_output.txt
	$(GO) run ./cmd/experiments -quick \
		-mixes WL-1,WL-2,WL-3,WL-4,WL-5,WL-6,WL-7,WL-8,WL-9,WL-10 \
		fig10 fig12 fig13 fig14 >> experiments_output.txt
