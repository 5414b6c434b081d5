GO ?= go

.PHONY: all build test allocs race hammer flake ci check-bench bench bench-lock bench-engine bench-obs bench-obs-profiler bench-commit bench-read bench-latch bench-throttle bench-diff smoke-read smoke-commit smoke-profile smoke-latch smoke-throttle obs-demo verify fmt vet

all: build

build:
	$(GO) build ./...

# test, allocs and race bound every package's run at 180 s, so a hung
# test fails in three minutes instead of go test's default ten.
test:
	$(GO) test -timeout 180s ./...

# allocs runs the allocation test in a process of its own: AllocsPerRun
# counts every goroutine's mallocs, so it must not share one with tests
# that churn in the background.
allocs:
	$(GO) test -timeout 180s -run '^TestTransactionAllocations$$' -count=3 ./internal/lockmgr

# Race-detector runs for the concurrency-sensitive packages: the sharded
# lock table, its spin-then-park shard latch, its block-chain lease pools,
# the engine facade that exposes the latch-free snapshot path, the
# lock-free observability primitives (striped histograms, decision log),
# the event ring, the transaction layer (optimistic read tokens validated
# against concurrent writers), and the buffer pool with the flat hash table
# that indexes it and the lock table.
RACE_PKGS = ./internal/latch ./internal/lockmgr ./internal/memblock \
	./internal/engine ./internal/obs ./internal/trace ./internal/txn \
	./internal/bufferpool ./internal/flathash
race:
	$(GO) test -race -timeout 180s $(RACE_PKGS)

# hammer reruns the concurrent hammer tests (every Test*Hammer) under the
# race detector, three times at each of GOMAXPROCS 1, 2 and 8: their
# interleavings, and so what they exercise, change with the number of Ps,
# and a failure seen only at 8 would otherwise wait for make flake, which
# takes hours. About 20 s on 2 cores.
HAMMER_PKGS = ./internal/lockmgr ./internal/txn ./internal/engine ./internal/bufferpool
hammer:
	@set -e; for p in 1 2 8; do \
		echo "hammer: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=3 -timeout 180s -run Hammer $(HAMMER_PKGS); \
	done

# flake hunts intermittent failures: FLAKE_COUNT (default 20) repetitions of
# tier-1 and of the race package list above at each GOMAXPROCS in
# FLAKE_PROCS (default 1 2 4 8). Each repetition is its own go test run with
# the same -timeout 180s as test and race, so a hang fails in three minutes
# and the bound applies per run, not to twenty runs at once. It stops at the
# first failure and names the GOMAXPROCS and repetition.
FLAKE_COUNT ?= 20
FLAKE_PROCS ?= 1 2 4 8
flake:
	@set -e; log=$$(mktemp); trap 'rm -f $$log' EXIT; \
	for p in $(FLAKE_PROCS); do for i in $$(seq $(FLAKE_COUNT)); do \
		echo "flake: GOMAXPROCS=$$p run $$i/$(FLAKE_COUNT)"; \
		GOMAXPROCS=$$p $(GO) test -count=1 -timeout 180s ./... >$$log 2>&1 || \
			{ cat $$log; echo "flake: tier-1 failed at GOMAXPROCS=$$p run $$i"; exit 1; }; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -timeout 180s $(RACE_PKGS) >$$log 2>&1 || \
			{ cat $$log; echo "flake: race failed at GOMAXPROCS=$$p run $$i"; exit 1; }; \
	done; done; \
	echo "flake: $(FLAKE_COUNT) runs at each GOMAXPROCS in $(FLAKE_PROCS) passed"

# ci is the full gate: verify, then flake at FLAKE_COUNT=3 (three
# repetitions of tier-1 and the race list at each GOMAXPROCS in
# FLAKE_PROCS). About 20 minutes on 2 cores, so it stays outside verify.
ci: verify
	$(MAKE) flake FLAKE_COUNT=3

# check-bench compiles, vets and runs the short tests of bench/, a nested
# module that go build ./... and go test ./... do not see: it reaches into
# internal/ through the exported API, so a rename there can break the
# yardstick without breaking tier-1.
check-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

bench: bench-lock

# bench-lock measures raw lock-table scalability (grant/release fast path
# across goroutine counts). BENCH_JSON captures one record per run so
# before/after numbers can be checked in (BENCH_LOCKSCALE_*.json).
bench-lock:
	BENCH_JSON=$${BENCH_JSON:-BENCH_LOCKSCALE.json} \
		$(GO) test -run xxx -bench BenchmarkLockScalability -benchtime 1s .

# bench-engine measures end-to-end engine commit throughput with the
# control plane (deadlock detector + timeout sweep) off and on at the
# simulator cadence. The detector-on/off gap is the cost of the control
# plane; BENCH_ENGINE_*.json records the before/after evidence.
bench-engine:
	BENCH_JSON=$${BENCH_JSON:-BENCH_ENGINE.json} \
		$(GO) test -run xxx -bench BenchmarkEngineThroughput -benchtime 1s .

# bench-obs measures the cost of the always-on observability layer on the
# engine hot path (detector on): wall-clock sampling disabled vs the
# default 1/64 stride, work-for-work on identical iteration counts. The
# acceptance bound is overhead below 3% of commits/sec;
# BENCH_OBS_OVERHEAD.json records the evidence.
bench-obs:
	BENCH_JSON=$${BENCH_JSON:-BENCH_OBS_OVERHEAD.json} \
		$(GO) test -run xxx -bench BenchmarkObsOverhead -benchtime 1s .

# bench-obs-profiler measures the contention profiler's cost on the engine
# hot path: profiler off (ProfileDisabled, wall-clock sampling off) vs the
# default-on configuration, work-for-work on identical iteration counts,
# on the hotkey and readmostly shapes at 16 goroutines. The pinned
# iteration count keeps each leg long enough for the best-of-three pairing
# to see past scheduler noise on small machines. The acceptance bound is
# overhead below 3% of commits/sec; BENCH_OBS_PROFILER.json records the
# evidence.
bench-obs-profiler:
	BENCH_JSON=$${BENCH_JSON:-BENCH_OBS_PROFILER.json} \
		$(GO) test -run xxx -bench BenchmarkObsProfiler -benchtime 120000x .

# bench-commit measures the transaction commit path: short transactions
# (2/8/64 locks, disjoint and hot-key, plus the commitstorm shape — 2
# locks confined to 4 hot shards at 1/16/64 goroutines) acquired and then
# released via ReleaseAll, reporting commits/sec and shard-latch
# acquisitions per commit. BENCH_COMMIT_BASELINE.json holds the
# full-sweep release path (3×shards latches per commit);
# BENCH_COMMIT_RELEASEPATH.json the touched-shard walk (O(shards
# touched)); BENCH_COMMIT_GROUPRELEASE.json the since-removed
# group-release path (staged batches + flush leaders on storming shards).
bench-commit:
	BENCH_JSON=$${BENCH_JSON:-BENCH_COMMIT.json} \
		$(GO) test -run xxx -bench BenchmarkCommitThroughput -benchtime 1s .

# bench-read measures the read-path shapes: readmostly (90% S/IS on a
# shared hot set, 10% X on a disjoint one — the CAS fast path's regime) and
# dss (≥99% S scans served by zero-CAS optimistic tokens — the seqlock
# tier's regime). BENCH_READPATH_BASELINE.json holds the pre-fast-path
# numbers (every grant serializes on its header's shard latch);
# BENCH_READPATH_FASTPATH.json the grant-word CAS admission numbers;
# BENCH_READPATH_OPTIMISTIC.json the token-tier numbers.
bench-read:
	BENCH_JSON=$${BENCH_JSON:-BENCH_READPATH_OPTIMISTIC.json} \
		$(GO) test -run xxx -bench 'BenchmarkLockScalability/(readmostly|dss)' -benchtime 1s .

# bench-latch runs the shard-latch A/B (hotkey + commitstorm + readmostly
# at 16/64 goroutines) twice: once with a fixed 64-spin budget (the naive
# fixed-spin latch, LATCH_SPIN=64) into BENCH_LATCH_BASELINE.json, once
# under the adaptive controller (LATCH_SPIN unset) into
# BENCH_LATCH_ADAPTIVE.json. The pinned iteration count means both legs do
# identical work (work-for-work comparison, no go-bench sizing probes),
# and -count 3 emits three independent runs per shape — contended waits on
# a loaded box are scheduler-quantized and run-to-run noisy, so compare
# pooled means (sum of mean_wait_ns×contended over sum of contended), not
# single rows. EXPERIMENTS.md records the acceptance numbers.
bench-latch:
	rm -f BENCH_LATCH_BASELINE.json BENCH_LATCH_ADAPTIVE.json
	BENCH_JSON=BENCH_LATCH_BASELINE.json LATCH_SPIN=64 \
		$(GO) test -run xxx -bench BenchmarkLatchContention -benchtime 3000000x -count 3 .
	BENCH_JSON=BENCH_LATCH_ADAPTIVE.json \
		$(GO) test -run xxx -bench BenchmarkLatchContention -benchtime 3000000x -count 3 .

# bench-throttle runs the admission-throttle collapse-curve A/B: one hot
# exclusive lock swept over g=16..256 with the control plane (timeout
# sweep, deadlock detector, throttle retune) ticking concurrently.
# BENCH_THROTTLE_BASELINE.json is the throttle-off leg (THROTTLE=-1, plain
# FIFO queues); BENCH_THROTTLE_LIMITED.json is the fixed-ceiling leg
# (THROTTLE=8, waiters past 8 queue newest-first). The off leg once
# collapsed past the knee because the deadlock detector exported an edge
# to every earlier waiter; with predecessor-only edges both legs should
# hold near their peak. Pinned iterations keep both legs work-for-work
# comparable; benchdiff -pct gates regressions.
bench-throttle:
	rm -f BENCH_THROTTLE_BASELINE.json BENCH_THROTTLE_LIMITED.json
	BENCH_JSON=BENCH_THROTTLE_BASELINE.json THROTTLE=-1 \
		$(GO) test -run xxx -bench BenchmarkHotkeySweep -benchtime 20000x .
	BENCH_JSON=BENCH_THROTTLE_LIMITED.json THROTTLE=8 \
		$(GO) test -run xxx -bench BenchmarkHotkeySweep -benchtime 20000x .

# bench-diff compares two BENCH_*.json trajectory files produced by the
# benchmarks above, printing per-shape deltas (grants/sec, commits/sec,
# hit rates). Usage: make bench-diff OLD=BENCH_READPATH_FASTPATH.json \
# NEW=BENCH_READPATH_OPTIMISTIC.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# smoke-read is the -short gate run of the read bench: one iteration per
# shape, no JSON (the b.N==1 probe never emits), just proof the dss/
# readmostly harnesses still grant and validate.
smoke-read:
	$(GO) test -run xxx -bench 'BenchmarkLockScalability/(readmostly|dss)' \
		-benchtime 1x -short .

# smoke-commit runs the workbench commitstorm workload — short X
# transactions confined to a few hot shards, with a shared row set that
# generates genuine FIFO waits — and fails unless the release walk's
# deferred wake pass actually coalesced grant wakeups (-min-coalesced
# turns the counter into an exit status).
smoke-commit:
	$(GO) run ./cmd/workbench -workload commitstorm -clients 64 -ticks 200 \
		-chart=false -events 0 -min-coalesced 1 >/dev/null
	@echo "smoke-commit: wakeups coalesced OK"

# smoke-profile runs the workbench commitstorm (hot-key) workload with the
# HTTP surface up and curls the contention profiler mid-run: /debug/hotlocks
# must serve a non-empty top-K (a "name" field proves at least one tracked
# hot lock), /debug/waiters must have observed a wait edge ("holder"
# proves a live blocked-on row), and /debug/flight must serve a wait record
# rendered to text (a "Detail" with depth= proves the flight recorder's
# format-on-read reaches HTTP). The run then prints the -profile report.
smoke-profile: build
	@set -e; \
	$(GO) run ./cmd/workbench -workload commitstorm -clients 64 -ticks 2500 \
		-chart=false -events 0 -profile -http 127.0.0.1:8373 -serve-for 4s >/dev/null & \
	pid=$$!; \
	ok=""; \
	for i in $$(seq 1 40); do \
		sleep 0.5; \
		if curl -sf http://127.0.0.1:8373/debug/hotlocks | grep -q '"name"' \
		&& curl -sf http://127.0.0.1:8373/debug/waiters | grep -q '"holder"' \
		&& curl -sf 'http://127.0.0.1:8373/debug/flight?last=50' | grep -q '"Detail": *"[^"]*depth='; then \
			ok=1; break; \
		fi; \
	done; \
	if [ -z "$$ok" ]; then echo "smoke-profile: no hot lock + wait edge + flight wait observed"; kill $$pid 2>/dev/null; exit 1; fi; \
	echo "smoke-profile: hot locks + wait edges + flight waits OK"; \
	wait $$pid

# smoke-latch runs the workbench commitstorm workload with the HTTP
# surface up and asserts the spin-then-park latch counters are on
# /metrics: the three lockmem_latch_{spins,parks,handoffs}_total families
# must be served per shard (values may be zero mid-run — the assertion is
# that the instrumented latch is wired into the exposition, not that the
# sim contends).
smoke-latch: build
	@set -e; \
	$(GO) run ./cmd/workbench -workload commitstorm -clients 64 -ticks 400 \
		-chart=false -events 0 -http 127.0.0.1:8374 -serve-for 5s >/dev/null & \
	pid=$$!; sleep 3; \
	curl -sf http://127.0.0.1:8374/metrics | grep -m1 'lockmem_latch_spins_total{shard="0"}'; \
	curl -sf http://127.0.0.1:8374/metrics | grep -m1 'lockmem_latch_parks_total{shard="0"}'; \
	curl -sf http://127.0.0.1:8374/metrics | grep -m1 'lockmem_latch_handoffs_total{shard="0"}'; \
	echo "smoke-latch: latch counters OK"; \
	wait $$pid

# smoke-throttle is the admission throttle's verify gate: a brief hot-lock
# hammer against a fixed ceiling must actually queue waiters past the
# ceiling (culled > 0), every acquire must succeed, and the drained table
# must pass CheckInvariants.
smoke-throttle:
	$(GO) test -run TestThrottleSmoke -count=1 .
	@echo "smoke-throttle: queue order OK"

# obs-demo runs the workbench surge workload with the HTTP surface up and
# curls it mid-run: /metrics must serve lock-wait histogram buckets and
# per-shard latch-wait counters; /debug/tuner must serve decision records.
obs-demo: build
	@set -e; \
	$(GO) run ./cmd/workbench -clients 60 -surge-to 200 -surge-at 120 \
		-ticks 600 -chart=false -http 127.0.0.1:8372 -serve-for 6s & \
	pid=$$!; sleep 3; \
	curl -sf http://127.0.0.1:8372/metrics | grep -m1 lockmem_lock_wait_seconds_bucket; \
	curl -sf http://127.0.0.1:8372/metrics | grep -m1 'lockmem_latch_waits_total{shard="0"}'; \
	curl -sf 'http://127.0.0.1:8372/debug/tuner?kind=tuning-pass&n=1'; \
	curl -sf 'http://127.0.0.1:8372/debug/events?n=3' >/dev/null; \
	echo "obs-demo: endpoints OK"; \
	wait $$pid

# verify is the tier-1 gate (see ROADMAP.md): formatting, vet, build, the
# full test suite, the allocation test alone, the race-detector pass over
# the concurrency-sensitive packages, and one-iteration smoke runs of the
# read-path benches, the commit path's deferred wake pass, the contention
# profiler's live endpoints, the spin-then-park latch counters on
# /metrics, and the admission throttle's queue order; plus
# vet and the short tests of the nested bench module.
verify: fmt vet build test allocs race hammer check-bench smoke-read smoke-commit smoke-profile smoke-latch smoke-throttle

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
