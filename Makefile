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
# invariants"), six analyzers: wall-clock reads, map-order leaks
# (unsorted key-collects included), global randomness, telemetry lookups
# in loops, lock-order cycles across functions and blocking calls under
# a held mutex (one lock walker), page-state writes outside the DSM
# protocol helpers — plus stale //hetmp:allow comments.
lint:
	$(GO) run ./cmd/hetmplint ./...

# Full race-detector sweep. The experiments package is slow under
# -race (~4 min); use race-fast during development.
race:
	$(GO) test -race ./...

# The packages with real goroutine concurrency, plus the engine that
# switches simulated procs (runtime coroutines) and the LLC pool shared
# across concurrent Sims, raced quickly.
.PHONY: race-fast
race-fast:
	$(GO) test -race ./internal/simtime/... ./internal/dsm/... ./internal/kernels/... ./internal/perf/... ./internal/rpc/... ./internal/core/... ./internal/cluster/... ./internal/apportion/... ./internal/decstore/... ./internal/server/...

# The rpc pool keeps state across Runs (the probe cache), so repetition
# is the net: the whole package, raced, ten times. Foreground, ~30 s.
.PHONY: rpc-soak
rpc-soak:
	$(GO) test -race -count=10 ./internal/rpc/

check: tier1 vet lint race

# The 5 % wall-clock budgets on EP-C, of telemetry enabled and of an
# empty chaos injector attached: interleaved pairs and a one-sided sign
# test each (TestTelemetryWallBudget, TestChaosOffWallBudget). Wall time
# means nothing beside other work, so they run alone, after the tests;
# tier 1 checks only the exact costs (TestTelemetryOverheadGuard,
# TestChaosOffZeroDelta).
.PHONY: wall-guard
wall-guard:
	HETMP_WALL_GUARD=1 $(GO) test -count=1 -run '^(TestTelemetryWallBudget|TestChaosOffWallBudget)$$' -v .

# Chaos soak: the degradation-injection acceptance tests (multi-seed
# soak, seeded reproducibility, chaos-off zero-delta) under the race
# detector. The chaos-off wall budget is make wall-guard's.
# A local target: `make race` (CI's gate) runs the same tests raced.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' .

# Hand mutants of the HetProbe rule and of the state a team reuses
# across regions (mutants/list.txt gives the format), each applied
# with go test -overlay from a temp dir, never in the tree: killed or
# survived, with the first killing test and its time; a survivor fails
# the target. Foreground, ~25 s.
.PHONY: mutants
mutants:
	bash mutants/run.sh

# Every fuzz target for $(FUZZTIME) each, from this one list of
# package:Target pairs. Foreground, ~90 s.
FUZZ_TARGETS = \
	internal/apportion:FuzzSplitterReuse \
	internal/core:FuzzAdoptStoredDecision \
	internal/core:FuzzRegionStep \
	internal/dsm:FuzzDSMTrace \
	internal/kernels:FuzzNearestCenter \
	internal/perf:FuzzLLCMatchesReference \
	internal/rpc:FuzzServerConn \
	internal/server:FuzzDispatchCore \
	internal/server:FuzzParseChurn \
	internal/server:FuzzParseMembers \
	internal/server:FuzzParseWeights \
	internal/server:FuzzSubmitBody \
	internal/simtime:FuzzWaitChain
FUZZTIME ?= 10s

# fuzz-targets-check fails when FUZZ_TARGETS misses a `func Fuzz*` of
# a _test.go file, or names one that does not exist, and says which.
.PHONY: fuzz fuzz-targets-check
fuzz-targets-check:
	@declared=$$(grep -rEo --include='*_test.go' --exclude-dir=testdata --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*\(' . \
		| sed -E 's|^\./||; s|^([^:]*)/[^/:]*:func |\1:|; s|^[^/:]*:func |.:|; s|\($$||' | sort -u); \
	listed=$$(printf '%s\n' $(FUZZ_TARGETS) | sort -u); \
	unlisted=$$(printf '%s\n' "$$declared" | grep -vxF "$$listed" || true); \
	stale=$$(printf '%s\n' "$$listed" | grep -vxF "$$declared" || true); \
	[ -z "$$unlisted" ] || echo "fuzz: missing from FUZZ_TARGETS:" $$unlisted >&2; \
	[ -z "$$stale" ] || echo "fuzz: FUZZ_TARGETS names no such function:" $$stale >&2; \
	[ -z "$$unlisted$$stale" ]

fuzz: fuzz-targets-check
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) ./$${t%%:*}/; \
	done

# Regenerate the full evaluation output (not checked in — takes
# minutes; see EXPERIMENTS.md for the committed summary).
results:
	$(GO) run ./cmd/hetbench -json results_full.json | tee results_full.txt

# Regenerate the three exact records: the quick report
# TestQuickReportMatchesGolden compares against, and the serving golden
# and the kernel outputs golden, which TestLoadReportMatchesGolden and
# TestKernelOutputsMatchGolden write when they find none. Commit them
# with the change that moved the numbers.
.PHONY: golden
golden:
	$(GO) run ./cmd/hetbench -quick -json internal/experiments/testdata/quick_report.json
	rm -f internal/server/testdata/load_report.json
	$(GO) test -count=1 -run '^TestLoadReportMatchesGolden$$' ./internal/server/
	rm -f internal/kernels/testdata/outputs.json
	$(GO) test -count=1 -run '^TestKernelOutputsMatchGolden$$' ./internal/kernels/

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

# Membership-churn smoke: a node is removed mid-run and re-added later,
# and a node of a class the platform lacks joins (it serves at once,
# like any newcomer), under the mixed chaos profile with its p95/p99
# wait+service latency budget asserted (-chaos-slo) and the dispatch
# hash (churn records included) and total virtual time double-run
# verified. Exactly-once accounting (lost_iterations 0) is always
# asserted when membership is on.
.PHONY: churn-smoke
churn-smoke:
	$(GO) run ./cmd/hetload -jobs 120 -tenants 4 -signatures 4 -seed 1 \
		-nodes n0:xeon:1,n1:thunderx:1,n2:thunderx:1 \
		-churn remove:n1@30,add:n1:thunderx:1@70,add:n3:gracehopper:1@90 \
		-chaos-profile mixed -chaos-slo -verify-determinism \
		-quiet -json $(OUT)/hetload_churn.json

# Command smoke: the two simulator commands end to end on the quick
# suite, one run under chaos (the ReDecide monitor's four windows and
# one re-decision end to end), the JSON report checked for
# well-formedness, and an
# unknown chaos profile rejected by both before anything runs; then
# the calibrate and heterosim examples, which derive their thresholds
# through the public API. Foreground.
.PHONY: cmd-smoke
cmd-smoke:
	$(GO) run ./cmd/hetmprun -quick -bench EP-C
	$(GO) run ./cmd/hetmprun -quick -bench lud -chaos-profile dsm-loss
	$(GO) run ./cmd/hetmprun -quick -bench CG-C -config "Cross-Node Dynamic" -batch-faults
	$(GO) run ./cmd/hetbench -quick -run fig4 -json - | python3 -m json.tool > /dev/null
	! $(GO) run ./cmd/hetmprun -quick -bench EP-C -chaos-profile bogus
	! $(GO) run ./cmd/hetbench -quick -run fig4 -chaos-profile bogus
	$(GO) run ./examples/calibrate
	$(GO) run ./examples/heterosim
