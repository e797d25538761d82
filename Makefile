GO ?= go

.PHONY: all build vet fmt-check test e2e-test examples golden race check trace-smoke vulncheck bench benchcmp bench-userstore bench-userstore-baseline bench-incremental bench-incremental-baseline bench-serve bench-serve-baseline serve-smoke bench-paper fuzz fmt

# Packages on the ingest hot path whose benchmarks are archived and gated.
BENCH_PKGS = ./internal/pipeline/ ./internal/text/ ./internal/geo/
# Packages of the analytics engine (flat matrices + clustering), archived
# and gated separately from the ingest path.
ANALYTICS_PKGS = ./internal/cluster/ ./internal/mat/
# The wire codec package; only the codec benchmarks are archived so the
# wire gate stays focused (TrackFilter etc. live in the pipeline suite).
WIRE_PKGS = ./internal/twitter/
WIRE_BENCH = ^Benchmark(DecodeTweet|DecodeTweetGeo|DecodeTweetStdlib|AppendTweet|AppendTweetStdlib|DecodeNDJSON)$$

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The end-to-end benchmark harness's own tests. e2ebench is a separate
# module that imports this one through a replace directive, so it runs
# with run.sh's environment: no workspace, no proxy, the local toolchain.
e2e-test:
	cd e2ebench && GOWORK=off GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# Run every example end to end; any non-zero exit fails the target.
EXAMPLES = quickstart statemap streaming
examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# The paper's output pinned: regenerate Table I, Figures 2-7, the
# ablations and the extensions at scale 1.0, seed 1, and fail on any
# byte that differs from the committed results_scale1.txt.
golden:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/benchtables -scale 1.0 -seed 1 > "$$out" && diff -u results_scale1.txt "$$out"

# Race-detector pass over the concurrent packages (stream client/server,
# chaos simulator, metrics registry, parallel ingestion, the analytics
# engine and its top-mentioner ranking, collector CLI).
# -short skips the scale-1.0 end of the suite; the concurrency paths are
# fully exercised.
race:
	$(GO) test -race -short ./internal/obs/... ./internal/twitter/ ./internal/pipeline/ ./internal/userstore/ ./internal/cluster/ ./internal/report/ ./internal/serve/ ./cmd/...

check: build vet fmt-check test race

# End-to-end tracing smoke: a short collect -checkpoint at 100% sampling
# must yield complete per-tweet waterfalls (stream read → decode →
# extract → geocode → fold) on /debug/traces, continued by a
# checkpoint.save span, while the span ring survives a concurrent
# write/read stress.
trace-smoke:
	$(GO) test -race -count=1 -run 'TraceSmokeWaterfall|RingRaceStress' ./cmd/donorsense/ ./internal/obs/trace/

# Known-vulnerability scan of the module graph (stdlib-only, so findings
# would come from the toolchain itself). Skips with a notice when the
# govulncheck binary is not installed; CI installs it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Ingest hot-path benchmarks (pipeline, extractor, geocoder), archived as
# both benchstat-friendly text (BENCH_pipeline.txt) and machine-readable
# JSON (BENCH_pipeline.json) so perf PRs can prove their wins against a
# committed baseline. Every benchmark run below uses -cpu 1: with more
# CPUs go test appends a -N suffix to each name, and a baseline and a
# rerun whose names differ would share no benchmark to compare.
bench:
	$(GO) test -cpu 1 -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) | tee BENCH_pipeline.txt
	$(GO) run ./cmd/benchjson -in BENCH_pipeline.txt -out BENCH_pipeline.json
	$(GO) test -cpu 1 -run '^$$' -bench . -benchmem -count 3 $(ANALYTICS_PKGS) | tee BENCH_analytics.txt
	$(GO) run ./cmd/benchjson -in BENCH_analytics.txt -out BENCH_analytics.json
	$(GO) test -cpu 1 -run '^$$' -bench '$(WIRE_BENCH)' -benchmem -count 3 $(WIRE_PKGS) | tee BENCH_wire.txt
	$(GO) run ./cmd/benchjson -in BENCH_wire.txt -out BENCH_wire.json

# Run the hot-path benchmarks fresh and diff them against the committed
# baseline; fails when ns/op or allocs/op regress by more than 10% on any
# benchmark. (Absolute numbers are machine-dependent — run `make bench`
# on the same machine first for a meaningful gate.)
benchcmp:
	$(GO) test -cpu 1 -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) > /tmp/benchcmp_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_new.txt -out /tmp/benchcmp_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_pipeline.json /tmp/benchcmp_new.json
	$(GO) test -cpu 1 -run '^$$' -bench . -benchmem -count 3 $(ANALYTICS_PKGS) > /tmp/benchcmp_analytics_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_analytics_new.txt -out /tmp/benchcmp_analytics_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_analytics.json /tmp/benchcmp_analytics_new.json
	$(GO) test -cpu 1 -run '^$$' -bench '$(WIRE_BENCH)' -benchmem -count 3 $(WIRE_PKGS) > /tmp/benchcmp_wire_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_wire_new.txt -out /tmp/benchcmp_wire_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_wire.json /tmp/benchcmp_wire_new.json
	$(MAKE) bench-userstore
	$(MAKE) bench-incremental
	$(MAKE) bench-serve

# Columnar user-store benchmarks: the userstore package measuring memory
# footprint (bytes/user at 1M and 10M rows), update latency, and
# state-scan throughput.
USERSTORE_PKG = ./internal/userstore/
# The 1M-row subset rerun by the CI gate; the 10M benchmarks are
# baseline-only (minutes of wall clock and >1 GB of headroom).
USERSTORE_BENCH_1M = ^BenchmarkUserstore(Footprint1M|Update1M|StateScan1M)$$

# Full userstore suite (including 10M rows), archived as the committed
# baseline; the *_before files hold the replaced map-of-pointer-structs
# store measured identically, so the two sets diff directly. The 1M
# subset runs with the gate's exact invocation (same subset, one
# process, -count 3) so the committed numbers carry the same
# within-process interference the gate's rerun will.
bench-userstore-baseline:
	$(GO) test -cpu 1 -run '^$$' -bench '$(USERSTORE_BENCH_1M)' -benchmem -count 3 $(USERSTORE_PKG) | tee BENCH_userstore.txt
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkUserstore(Footprint10M|Update10M)$$' -benchmem -timeout 60m $(USERSTORE_PKG) | tee -a BENCH_userstore.txt
	$(GO) run ./cmd/benchjson -in BENCH_userstore.txt -out BENCH_userstore.json
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkMapstore' -benchmem -timeout 60m $(USERSTORE_PKG) | tee BENCH_userstore_before.txt
	$(GO) run ./cmd/benchjson -in BENCH_userstore_before.txt -out BENCH_userstore_before.json

# CI gate: rerun the 1M-row userstore benchmarks fresh and fail when
# ns/op or allocs/op regress by more than 10% against the committed
# baseline. Benchmarks only in the baseline (the 10M set) are skipped by
# the comparer, so the gate stays fast.
bench-userstore:
	$(GO) test -cpu 1 -run '^$$' -bench '$(USERSTORE_BENCH_1M)' -benchmem -count 3 $(USERSTORE_PKG) > /tmp/benchcmp_userstore_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_userstore_new.txt -out /tmp/benchcmp_userstore_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_userstore.json /tmp/benchcmp_userstore_new.json

# Incremental analytics benchmarks: one full-report refresh after a
# 10k-tweet delta lands on a 100k- or 1M-user store, incremental engine
# (BENCH_incremental.*) versus from-scratch Analyze at the same config
# (BENCH_incremental_before.*) — the ≥20× latency claim lives in the
# diff of the two files. The 1M benchmarks are baseline-only; the gate
# reruns the 100k subset.
REPORT_PKG = ./internal/report/

bench-incremental-baseline:
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkIncrementalRefresh100k$$' -benchmem -count 3 $(REPORT_PKG) | tee BENCH_incremental.txt
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkIncrementalRefresh1M$$' -benchmem -benchtime 10x -timeout 60m $(REPORT_PKG) | tee -a BENCH_incremental.txt
	$(GO) run ./cmd/benchjson -in BENCH_incremental.txt -out BENCH_incremental.json
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkFromScratchAnalyze100k$$' -benchmem -count 3 $(REPORT_PKG) | tee BENCH_incremental_before.txt
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkFromScratchAnalyze1M$$' -benchmem -benchtime 3x -timeout 60m $(REPORT_PKG) | tee -a BENCH_incremental_before.txt
	$(GO) run ./cmd/benchjson -in BENCH_incremental_before.txt -out BENCH_incremental_before.json

bench-incremental:
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkIncrementalRefresh100k$$' -benchmem -count 3 $(REPORT_PKG) > /tmp/benchcmp_incremental_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_incremental_new.txt -out /tmp/benchcmp_incremental_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_incremental.json /tmp/benchcmp_incremental_new.json

# Query-API serving benchmarks: the epoch-cached read path (cached hit,
# 304 revalidation, cold parameterized render, concurrent readers with
# and without refresh churn). ns/op and allocs/op are gated — the cached
# hit and 304 paths must hold 0 allocs/op — and the churn pair's
# p99-ns/op columns carry the readers-never-stall-on-publish claim.
SERVE_PKG = ./internal/serve/

bench-serve-baseline:
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkServe' -benchmem -count 3 $(SERVE_PKG) | tee BENCH_serve.txt
	$(GO) run ./cmd/benchjson -in BENCH_serve.txt -out BENCH_serve.json

# CI gate: rerun the serving benchmarks fresh against the committed
# baseline. The serving ops sit at ~100 ns where scheduler jitter on
# virtualized runners is ±15%, so the ns/op threshold is 25% — wide
# enough not to flap, far below the cost of any structural regression
# (a lock, a map lookup, or an allocation on the hot path is +50% or
# more). The allocs/op gate is exact regardless: 0 → anything is an
# unbounded regression at every threshold.
bench-serve:
	$(GO) test -cpu 1 -run '^$$' -bench '^BenchmarkServe' -benchmem -count 3 $(SERVE_PKG) > /tmp/benchcmp_serve_new.txt
	$(GO) run ./cmd/benchjson -in /tmp/benchcmp_serve_new.txt -out /tmp/benchcmp_serve_new.json
	$(GO) run ./cmd/benchjson -threshold 25 -compare BENCH_serve.json /tmp/benchcmp_serve_new.json

# Live serving smoke: build the binaries, start a replayed stream with
# light injected faults and a collect -serve -checkpoint consumer with
# fast reconnects, poll the query API to 200, assert
# a 304 revalidation, then drive cmd/queryload against it for 5 seconds
# in strict mode (any transport error or non-200/304 status fails). Once
# the collector stops, donorsense serve over its checkpoint gets the same
# checks and 2 seconds of strict queryload.
serve-smoke:
	$(GO) build -o /tmp/donorsense ./cmd/donorsense
	$(GO) build -o /tmp/queryload ./cmd/queryload
	sh scripts/serve_smoke.sh /tmp/donorsense /tmp/queryload

# Every input the program reads from outside, fuzzed for 30s per target
# (name:package): the wire codec against the encoding/json oracle, the
# NDJSON corpus reader, the tokenizer and organ extractor (the
# allocation-free extractor against its reference), the geocoder and ZIP lookup (the
# segmenter against its reference), the checkpointed analytics
# warm-state decoder and the checkpoint reader (refuse or load, never
# panic, allocation bounded by the input), and the query API's parameter
# parsing (only 200, 400 or 404). CI runs this target on every push.
FUZZ_TARGETS = \
	FuzzWire:./internal/twitter/ \
	FuzzReadNDJSON:./internal/twitter/ \
	FuzzTokenize:./internal/text/ \
	FuzzExtract:./internal/text/ \
	FuzzExtractDifferential:./internal/text/ \
	FuzzLocate:./internal/geo/ \
	FuzzZIPState:./internal/geo/ \
	FuzzSegmentDifferential:./internal/geo/ \
	FuzzRestoreWarm:./internal/report/ \
	FuzzReadCheckpoint:./internal/pipeline/ \
	FuzzServeQuery:./internal/serve/
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $${t%%:*}"; \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}$$" -fuzztime 30s "$${t#*:}" || exit 1; \
	done

# The full per-table/per-figure benchmark suite from the repo root.
bench-paper:
	$(GO) test -bench=. -benchmem

fmt:
	gofmt -l -w .
