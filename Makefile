# Tier-1 verification plus the race and lint gates for the concurrent
# serving code. `make ci` is what every PR must keep green.
GO ?= go

.PHONY: ci fmt vet lint lint-fast build test race fuzz-smoke metricsz-smoke ws-smoke bench-smoke bench-baseline bench-selftest stress bench soak-smoke soak

ci: fmt vet lint build test race fuzz-smoke metricsz-smoke ws-smoke bench-smoke bench-selftest soak-smoke

# Every Go file in the tree (the perfbench module included) must be
# gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The project-specific analyzer suite (internal/analysis, driven by
# cmd/ewvet): lock discipline, guarded fields, float equality, hot-path
# allocations, goroutine lifecycles, plus the interprocedural layer —
# call-graph construction, hot-path propagation, and global lock-order
# deadlock detection. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/ewvet .

# Inner-loop variant: intra-procedural analyzers only, skipping the
# module-wide call-graph construction the interprocedural layer needs.
lint-fast:
	$(GO) run ./cmd/ewvet -fast .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the whole module. The serve tree additionally runs at
# -cpu=1,4 so shard scheduling (sharded session manager, worker pools,
# pooled streams) is exercised both starved and parallel.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu=1,4 ./internal/serve/...

# Scrape GET /metricsz on a live sharded service under real traffic and
# strictly re-parse the Prometheus exposition (names, HELP/TYPE order,
# histogram cumulativity), cross-checking every counter against /statsz.
metricsz-smoke:
	$(GO) test -run 'TestMetricsz' -count=1 ./internal/serve

# A short ewload run over the /v1/stream WebSocket path, gated on the
# error rate and on a strict /metricsz scrape: the duplex ingest must
# deliver incremental detections under concurrency, end to end.
ws-smoke:
	$(GO) run ./cmd/ewload -ws -writers 8 -signals 2 -max-error-rate 0.01 -metricsz

# A 10-second native-fuzz smoke of the streaming chunking invariance;
# regressions in Stream.Feed surface here before the long fuzzers run.
# The 5-second WebSocket frame-parser fuzz guards the untrusted-input
# path of the duplex ingest the same way.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzStreamFeed -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzFrameRead -fuzztime 5s ./internal/ws
	$(GO) test -run '^$$' -fuzz FuzzBandTransform -fuzztime 5s ./internal/dsp

# The serving-path benchmarks — the band STFT and one end-to-end
# streaming session — checked against the committed baseline
# (BENCH_baseline.json): >20% ns/op regression, or an allocs/op count
# outside its baselined band, fails the build. Three short counts per
# benchmark; ewbenchgate gates on the per-benchmark minimum so
# shared-machine noise cannot fail a healthy build.
BENCH_SMOKE = { $(GO) test -run '^$$' -bench 'BenchmarkSTFTCompute/band$$' -benchmem -benchtime 0.3s -count 3 ./internal/dsp && \
	$(GO) test -run '^$$' -bench 'BenchmarkStreamFeed1024$$' -benchmem -benchtime 0.3s -count 3 .; }

bench-smoke:
	$(BENCH_SMOKE) | $(GO) run ./cmd/ewbenchgate

# Refresh the committed baseline after a deliberate performance change;
# the baseline diff should land in the same commit as its cause.
bench-baseline:
	$(BENCH_SMOKE) | $(GO) run ./cmd/ewbenchgate -update

# The serving benchmark (perfbench/) is its own module, so the root
# `go test ./...` never builds it; compile and self-test it here so a
# program API change that breaks the benchmark fails CI, not the
# benchmark run.
bench-selftest:
	cd perfbench && $(GO) test .

# The long-running adversarial soak: the stress suite with its goroutine
# and iteration counts multiplied (see internal/serve/stress).
stress:
	EW_STRESS=long $(GO) test -race -v -timeout 30m ./internal/serve/stress/

# Scenario-matrix replay smoke: record (or reuse) the smoke matrix's
# traces and soak both ingest paths for 2 s each, holding /metricsz to
# the health bands. EW_SOAK=long gears the per-phase duration ×10 — the
# `soak` target below is the full matrix at that length.
soak-smoke:
	$(GO) run ./cmd/ewload -scenario smoke -soak 2s -writers 4

soak:
	EW_SOAK=long $(GO) run ./cmd/ewload -scenario all -soak 30s

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
