# Development targets. `make check` is the pre-merge gate (see ROADMAP.md).

GO ?= go

.PHONY: check lint vet memlint memlint-per-check lint-fixtures build test race repro bench benchdiff fuzz soak soak-parallel soak-remote prof-smoke serve-smoke top-smoke examples loadtest fmt

check: lint build race repro benchdiff ## pre-merge gate: lint + build + race tests + reproduction (+ advisory benchdiff)

# lint is the static-analysis gate: go vet plus the repo's own memlint
# suite (determinism, maprange, nilhook, durable, errhygiene, and the
# whole-module concurrency checks lockguard/goleak/ctxflow — see
# docs/static-analysis.md). memlint exits 0 on a clean tree, 1 on
# findings, 2 on usage/load errors; `go run` caches the memlint build in
# the standard Go build cache, so repeat runs only pay for analysis.
lint: vet memlint

vet:
	$(GO) vet ./...

memlint:
	$(GO) run ./cmd/memlint ./...

# MEMLINT_CHECKS drives the per-check CI step: one memlint invocation
# per analyzer, timed, so a slow or noisy check is visible in the log
# instead of hiding inside the aggregate run.
MEMLINT_CHECKS ?= determinism maprange nilhook durable errhygiene lockguard goleak ctxflow
memlint-per-check:
	@for c in $(MEMLINT_CHECKS); do \
		start=$$(date +%s%N); \
		$(GO) run ./cmd/memlint -checks $$c ./... || exit 1; \
		echo "== memlint -checks $$c: $$(( ($$(date +%s%N) - start) / 1000000 )) ms"; \
	done

# lint-fixtures runs only the analyzer fixture harness (want comments +
# goldens) — the fast inner loop for analyzer development; regenerate
# goldens with `go test ./internal/analysis -run Fixture -update`.
lint-fixtures:
	$(GO) test -run 'Fixture' -count=1 ./internal/analysis/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

repro:
	$(GO) test -run TestReproduction ./...

# fuzz gives every fuzz target a short smoke run (the regression corpora
# under testdata/fuzz run on every plain `go test` regardless).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -fuzz '^FuzzParseByteSize$$' -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz '^FuzzParseBandwidth$$' -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz '^FuzzLoadPlatformFile$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzLoadProfileFile$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz '^FuzzMergeShards$$' -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz '^FuzzLeaseDecode$$' -fuzztime $(FUZZTIME) ./internal/lease/
	$(GO) test -fuzz '^FuzzDecodeEvents$$' -fuzztime $(FUZZTIME) ./internal/campaign/

# prof-smoke runs memprof on the seeded overlap scenario and validates
# the Perfetto export byte-for-byte against the golden file (regenerate
# after intended changes with `go test ./cmd/memprof -run Golden -update`).
prof-smoke:
	$(GO) test -run 'TestMemprof' -count=1 ./cmd/memprof/

# soak kills the Table II pipeline at seeded random points and resumes
# it from the checkpoint journal, asserting byte-identical artifacts
# (see docs/resilience.md).
SOAK_ROUNDS ?= 6
soak:
	$(GO) run ./scripts/soak -rounds $(SOAK_ROUNDS)

# soak-parallel soaks the in-process sharded executor (lease workers in
# one process): random worker kills mid-shard, each restarted under its
# own lease owner, whole-campaign kills resumed from the per-shard
# journals, and a poison-unit quarantine phase — all byte-checked
# against the sequential baseline (see docs/campaigns.md).
soak-parallel:
	$(GO) run ./scripts/soak -parallel -rounds $(SOAK_ROUNDS)

# soak-remote soaks the lease-coordinated multi-process campaign with
# real memworker processes and real signals: two workers SIGKILLed
# mid-unit, one SIGSTOPped past its lease TTL and resurrected as a
# fenced zombie that keeps writing, a fresh worker taking every orphaned
# shard over — merged artifacts byte-checked against the sequential
# baseline (see docs/campaigns.md).
soak-remote:
	$(GO) run ./scripts/soak -remote

# bench refreshes the benchmark log used to track instrumentation
# overhead (compare against BENCH_baseline.json).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./... | $(GO) run ./scripts/benchjson

# benchdiff reruns a stable benchmark subset and compares ns/op and
# allocs/op against BENCH_baseline.json, failing beyond 15% growth.
# Advisory in `make check` (leading `-`): shared runners are noisy, so a
# flagged regression means "measure properly before merging", not
# "blocked" (see docs/observability.md).
BENCHDIFF_PATTERN ?= BenchmarkClusterHaloExchange$$|BenchmarkTable1Platforms$$|BenchmarkPredict$$|BenchmarkSolver$$
benchdiff:
	-$(GO) test -bench '$(BENCHDIFF_PATTERN)' -benchmem -run '^$$' ./... \
		| $(GO) run ./scripts/benchjson \
		| $(GO) run ./scripts/benchdiff -baseline BENCH_baseline.json

# serve-smoke boots the real memserve binary path (warm-up, listener,
# live plane) and walks /healthz, /readyz, a prediction and a /metrics
# scrape end to end.
serve-smoke:
	$(GO) test -run 'TestMemserve' -count=1 ./cmd/memserve/

# top-smoke drains a real campaign, renders memtop's text, JSON and
# timeline views byte-for-byte against the golden files (regenerate
# after intended changes with `go test ./cmd/memtop -run Golden -update`)
# and scrapes the -serve plane's memcontention_fleet_* gauges.
top-smoke:
	$(GO) test -run 'TestMemtop' -count=1 ./cmd/memtop/

# examples runs every examples/* program end to end (each exits 0 in
# about half a second); they drive the public facade, including its
# Calibrate and Evaluate paths, which `go build` alone only compiles.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# loadtest proves the serving budgets on cached predictions: achieved
# QPS >= 5000 and server-reported p99 <= 5ms, both read back from the
# live /metrics scrape (see docs/memserve.md).
LOAD_DURATION ?= 3s
loadtest:
	$(GO) run ./scripts/loadgen -duration $(LOAD_DURATION) -workers 16 -qps-budget 5000 -p99-budget 5ms

fmt:
	gofmt -l -w .
