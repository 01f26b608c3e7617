# Development targets. The simulation itself needs only the Go toolchain.

GO ?= go

# Pinned staticcheck, fetched through the module proxy on demand. Kept
# out of go.mod so the simulator itself stays dependency-free.
STATICCHECK = $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: build test short race bench serve ci staticcheck regen-output timeline-demo soak soak-short cluster-smoke cluster-demo checkpoint-smoke

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
# skips six of the eight, among them the deep-queue fig4, the adaptive
# and OOO fig14 and the pausing and subarray ext1; all eight take ~5 s)
# rendered plainly and again after every exact cell was preempted at
# its second checkpoint boundary and resumed (~15 s),
# then the race detector over the concurrency-bearing packages (the worker
# pool, the fault injector, the journal, the event engine — which also
# guards the hot path's 0 allocs/op via
# TestEngineScheduleIsAllocationFree — and the serving daemon) and over
# the harness's CellStore tests (the store a sweep's workers share; the
# whole harness suite is too slow for the race list) and over core's
# checkpoint/resume contract tests (a 32 Gb cell; its snapshots stay
# small because the page allocator stores only the memory a cell
# touched), the daemon smoke
# drill (the real binary on an ephemeral port, /healthz, a
# figure round-trip through the cache, and a SIGTERM drain to exit 0)
# with its durability twin (SIGKILL after a sweep, then a warm restart
# on the same -journal answers it as a hit with zero simulations), the
# on-disk checkpoint drill (checkpoint-smoke, ~2 s), and finally the
# refbench module's own tests (~20 s; it is a separate module, so ./...
# above does not reach it).
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
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestDaemonKillWarmRestart' ./cmd/refschedd/
	$(MAKE) checkpoint-smoke
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
