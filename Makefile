# Development entry points. `make check` is the full gate: the tier-1
# build-and-test pass plus `go vet`, a gofmt cleanliness gate, and the
# race detector on the packages with concurrent evaluation loops.
# `make bench-smoke` compiles and runs every benchmark once — enough to
# catch bit-rot in the perf harness without waiting for statistically
# meaningful timings. `make benchcmp` re-measures the micro-benchmarks
# and diffs them against the checked-in BENCH_simcore.json baseline,
# failing on >10% ns/op regressions.

GO ?= go

.PHONY: check build test vet fmt race bench-smoke benchcmp benchcmp-auto engine-smoke robust-smoke milp-smoke gamma-smoke cache-smoke serve-smoke pareto-smoke fuzz-smoke

check: build test vet race fmt gamma-smoke serve-smoke pareto-smoke fuzz-smoke benchcmp-auto

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -timeout 30m: internal/core carries the ~15 s Γ=1 slab known-cost pin
# (DESIGN.md §14); under the race detector the package takes ~7 min on a
# 2-vCPU box, close to go test's default 10 m per-package budget.
race:
	$(GO) test -race -timeout 30m ./internal/engine/ ./internal/core/ ./internal/exhaustive/ ./internal/netsim/ ./internal/fault/ ./internal/lp/ ./internal/lp/presolve/ ./internal/milp/
	$(GO) test -race -short -timeout 30m ./internal/serve/

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Every native fuzz target (func Fuzz* in a _test.go file) for FUZZTIME,
# one go test -fuzz call per target: go test fuzzes a single target per
# call. A failing input is written to the package's testdata/fuzz and
# fails the target; commit it as a corpus entry once the fault is mended.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' .); do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "$(GO) test -run=NONE -fuzz=^$$fn\$$ -fuzztime=$(FUZZTIME) $$(dirname $$f)"; \
			$(GO) test -run=NONE -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) $$(dirname $$f); \
		done; \
	done

# The perf-regression gate: re-measure the simulator micro-benchmarks
# in-process (hibench -benchjson) and diff against the checked-in
# baseline. Fails when any benchmark's ns/op regressed by more than 10%.
# Skips the slow experiment wall-time section via -exp t1.
benchcmp:
	$(GO) run ./cmd/hibench -exp t1 -benchjson /tmp/hibench-new.json > /dev/null
	$(GO) run ./cmd/hibench -cmp BENCH_simcore.json /tmp/hibench-new.json

# benchcmp, but only when a checked-in baseline exists — the form wired
# into `make check` so a fresh clone without a snapshot still passes.
# Timings on shared/virtualized boxes flap by ±30% run to run, so the
# check-wired gate measures twice and gates each benchmark's faster
# ns/op, with the threshold widened to 50% (a real hot-path regression
# still trips it), while keeping the near-deterministic allocs/op and
# B/op gates at the strict 10% on the larger of the two runs;
# `make benchcmp` remains the strict timing gate for quiet machines.
benchcmp-auto:
	@if [ -f BENCH_simcore.json ]; then \
		$(GO) run ./cmd/hibench -exp t1 -benchjson /tmp/hibench-new.json > /dev/null && \
		$(GO) run ./cmd/hibench -exp t1 -benchjson /tmp/hibench-new2.json > /dev/null && \
		$(GO) run ./cmd/hibench -cmp -nsdelta 0.5 BENCH_simcore.json /tmp/hibench-new.json /tmp/hibench-new2.json; \
	else echo "benchcmp-auto: no BENCH_simcore.json baseline, skipping"; fi

# A tiny Γ ∈ {0,1} propose-and-verify chain at the attainable 0.6 robust
# floor and 10 s horizon: screen-and-cut (Γ=0) walks three nominal power
# classes and verifies the survivors against k=1 faults; Γ=1 compiles the
# protection into the relaxation and verifies its first pool. Both must
# land on a robust-feasible design (hiopt exits 2 otherwise).
gamma-smoke:
	$(GO) run ./cmd/hiopt -robust -kfail 1 -robustpdrmin 0.6 -duration 10 -maxiter 3 -adaptive > /dev/null
	$(GO) run ./cmd/hiopt -gamma 1 -robustpdrmin 0.6 -duration 10 -maxiter 1 -adaptive > /dev/null

# The evaluation-engine gate: the determinism/dedup/worker-pool property
# tests under the race detector, plus one pass of the engine benchmarks
# (dispatch overhead and cache-hit path).
engine-smoke:
	$(GO) test -race -count=1 ./internal/engine/
	$(GO) test -run=NONE -bench='Micro/engine_' -benchtime=1x .

# The persistent-cache gate: a cold hisweep populates a cache file, a
# second process restarts from it, and the warm run must (a) produce a
# bit-identical CSV and (b) answer >= 90% of its submissions without
# re-simulating (the "N simulated" figure of the engine stats line).
cache-smoke:
	@rm -f /tmp/hiopt-cache-smoke.bin /tmp/hiopt-cache-cold.csv /tmp/hiopt-cache-warm.csv
	$(GO) run ./cmd/hisweep -duration 5 -cachefile /tmp/hiopt-cache-smoke.bin -csv /tmp/hiopt-cache-cold.csv > /tmp/hiopt-cache-cold.out
	$(GO) run ./cmd/hisweep -duration 5 -cachefile /tmp/hiopt-cache-smoke.bin -csv /tmp/hiopt-cache-warm.csv > /tmp/hiopt-cache-warm.out
	cmp /tmp/hiopt-cache-cold.csv /tmp/hiopt-cache-warm.csv
	@awk '/^engine:/ { sub(",", "", $$2); sub(",", "", $$4); sub(",", "", $$2); \
		if ($$4 + 0 > 0.10 * $$2) { \
			printf "cache-smoke: warm run re-simulated %s of %s submissions (> 10%%)\n", $$4, $$2; exit 1; } \
		else { printf "cache-smoke: warm run re-simulated %s of %s submissions\n", $$4, $$2; ok = 1 } } \
		END { if (!ok) { print "cache-smoke: no engine stats line in warm output"; exit 1 } }' /tmp/hiopt-cache-warm.out

# The ε-constraint front gate: (a) the sweep must select the exact
# per-bound optima of independent fresh Algorithm 1 runs while its class
# record solves >= 5× fewer simplex pivots than they do (the acceptance
# property test), (b) the front CSV of these settings must match the
# checked-in golden file, and (c) a small hisweep -pareto front run twice
# must emit byte-identical CSVs (the sweep is deterministic end to end).
pareto-smoke:
	$(GO) test -count=1 -run 'TestParetoSweepMatchesFreshRuns' -v ./internal/core/
	$(GO) test -count=1 -run 'TestFRSmokeCSVGolden' ./internal/experiments/
	@rm -f /tmp/hiopt-pareto-a.csv /tmp/hiopt-pareto-b.csv
	$(GO) run ./cmd/hisweep -pareto -duration 10 -bounds 0.5,0.65,0.8 -paretocsv /tmp/hiopt-pareto-a.csv > /dev/null
	$(GO) run ./cmd/hisweep -pareto -duration 10 -bounds 0.5,0.65,0.8 -paretocsv /tmp/hiopt-pareto-b.csv > /dev/null
	cmp /tmp/hiopt-pareto-a.csv /tmp/hiopt-pareto-b.csv
	@echo "pareto-smoke: sweep matches fresh runs, CSV matches golden, repeated CSV byte-identical"

# The daemon gate: assemble the real hiserve stack and run three
# concurrent personalized requests — one cancelled mid-stream — then
# assert a byte-identical repeat response and a clean shutdown, under
# the race detector (DESIGN.md §16).
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestCancelMidStream' -v ./internal/serve/

# A fast end-to-end robustness pass: one configuration evaluated against
# its 1-node-failure family at quick fidelity.
robust-smoke:
	$(GO) run ./cmd/hisim -locs 0,1,3,6 -routing star -mac tdma -tx 0 -duration 60 -faults knode=1

# The warm-started MILP kernel gate: the warm-vs-cold equivalence property
# tests on BOTH kernels (randomized bound/cut mutations in internal/lp,
# pool enumeration across pruning cuts in internal/milp), the presolve
# pool-preservation property, the parallel-dive determinism tests under
# the race detector, plus the paper-chain pivot-budget check in
# internal/core.
milp-smoke:
	$(GO) test -race -count=1 ./internal/lp/ ./internal/lp/presolve/ ./internal/milp/
	$(GO) test -race -count=1 -run 'TestParallelPool' -v ./internal/milp/
	$(GO) test -count=1 -run 'TestPaperChainWarmMatchesCold|TestWarmPoolDeepChainComplete|TestRunWarmMatchesColdMILP|TestPaperChainKernelModes' -v ./internal/core/
