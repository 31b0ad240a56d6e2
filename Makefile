# Tier-1 verification plus the race/vet gate that keeps the
# concurrency fixes (dynSeq, reduce buffers, RPC pool) fixed.

GO ?= go

# Where the smoke targets write their JSON reports.
# `make OUT=/root/scratch/out load-smoke churn-smoke` when /tmp is not
# writable.
OUT ?= $(or $(TMPDIR),/tmp)

.PHONY: all tier1 vet race check results chaos lint

all: check

# The repo's tier-1 command: everything must build, all tests pass.
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific invariant checks (see DESIGN.md "Statically enforced
# invariants"), seven analyzers: wall-clock reads, map-order leaks
# (unsorted key-collects included), global randomness, telemetry lookups
# in loops, blocking calls under mutexes, lock-order cycles across
# functions, page-state writes outside the DSM protocol helpers — plus
# stale //hetmp:allow comments.
lint:
	$(GO) run ./cmd/hetmplint ./...

# Full race-detector sweep. The experiments package is slow under
# -race (~4 min); use race-fast during development.
race:
	$(GO) test -race ./...

# The packages with real goroutine concurrency, raced quickly.
.PHONY: race-fast
race-fast:
	$(GO) test -race ./internal/rpc/... ./internal/core/... ./internal/cluster/... ./internal/apportion/... ./internal/decstore/... ./internal/server/...

# The rpc pool keeps state across Runs (the probe cache), so repetition
# is the net: the whole package, raced, ten times. Foreground, ~30 s.
.PHONY: rpc-soak
rpc-soak:
	$(GO) test -race -count=10 ./internal/rpc/

check: tier1 vet lint race

# Chaos soak: the degradation-injection acceptance tests (multi-seed
# soak, seeded reproducibility, chaos-off zero-delta) under the race
# detector. The wall-clock overhead guard skips itself under -race.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' .

# Regenerate the full evaluation output (not checked in — takes
# minutes; see EXPERIMENTS.md for the committed summary).
results:
	$(GO) run ./cmd/hetbench -json results_full.json | tee results_full.txt

# Regenerate the golden quick report TestQuickReportMatchesGolden
# compares against. Commit it with the change that moved the numbers.
.PHONY: golden
golden:
	$(GO) run ./cmd/hetbench -quick -json internal/experiments/testdata/quick_report.json

# Serving-layer smoke: a seeded hetload soak (deterministic dispatch
# asserted by running twice, SLOs on, warm probes pinned to zero) plus
# a small-queue backpressure run that must see rejections and still
# land every job through retry/backoff.
.PHONY: load-smoke
load-smoke:
	$(GO) run ./cmd/hetload -jobs 200 -tenants 4 -signatures 6 -seed 1 \
		-verify-determinism -slo-min-cross-tenant-warm 10 -quiet -json $(OUT)/hetload_smoke.json
	$(GO) run ./cmd/hetload -jobs 60 -tenants 3 -signatures 3 -seed 11 \
		-no-preload -queue-depth 4 -max-inflight 2 -expect-rejections -quiet -json $(OUT)/hetload_backpressure.json

# Membership-churn smoke: a node is removed mid-run and re-added later
# (covered class, so the re-add warm-starts probe-free), under the
# mixed chaos profile with its p95/p99 wait+service latency budget
# asserted (-chaos-slo) and the dispatch hash (churn records included)
# double-run verified. Exactly-once accounting (lost_iterations 0) is
# always asserted when membership is on.
.PHONY: churn-smoke
churn-smoke:
	$(GO) run ./cmd/hetload -jobs 120 -tenants 4 -signatures 4 -seed 1 \
		-nodes n0:xeon:1,n1:thunderx:1,n2:thunderx:1 \
		-churn remove:n1@30,add:n1:thunderx:1@70 \
		-chaos-profile mixed -chaos-slo -verify-determinism \
		-quiet -json $(OUT)/hetload_churn.json
