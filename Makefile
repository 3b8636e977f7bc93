# Development entry points. `make check` is the full gate: the tier-1
# build-and-test pass plus `go vet` (of the root module and of the
# separate perfbench module, which `go build ./...` never builds), a
# gofmt cleanliness gate, and the race detector on the packages with
# concurrent evaluation loops.
# `make bench-smoke` compiles and runs every benchmark once — enough to
# catch bit-rot in the perf harness without waiting for statistically
# meaningful timings. `make benchcmp` re-measures the micro-benchmarks
# and diffs them against the checked-in BENCH_simcore.json baseline,
# failing on >10% ns/op regressions.

GO ?= go

.PHONY: check build test vet fmt race bench-smoke benchcmp benchcmp-auto engine-smoke robust-smoke milp-smoke gamma-smoke cache-smoke serve-smoke pareto-smoke fuzz-smoke

check: build test vet race fmt gamma-smoke robust-smoke cache-smoke serve-smoke pareto-smoke fuzz-smoke benchcmp-auto

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module; vet type-checks it without dropping a
# perfbench/perfbench binary into the tree as `go build ./...` would.
# The LP kernel's row elimination is amd64 assembly (asmdecl checks its
# frame offsets); the arm64 vet builds and checks the pure-Go fallback
# that every other GOARCH compiles. Every multiply-add of the module —
# the LP, MILP and linear-expression packages as well as the simulator
# stack (rng, body, channel, netsim, app, mac, fault) and core — rounds
# its product (y − float64(a*b)), so no backend may fuse it and arm64
# computes the bits amd64 does; the arm64 assembly listing of every
# package must hold no fused multiply-add instruction.
FUSED_OPS = FMADDD|FMSUBD|FNMADDD|FNMSUBD
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/lp/ ./internal/milp/
	GOARCH=arm64 $(GO) build -gcflags=-S ./... > /tmp/hiopt-arm64.s 2>&1
	@if grep -E '\b($(FUSED_OPS))\b' /tmp/hiopt-arm64.s; then \
		echo "vet: fused multiply-add in the arm64 build"; exit 1; fi
	cd perfbench && $(GO) vet ./...

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

# The persistent-cache and profiling gate. (a) A cold hisweep populates a
# cache file and a second process restarts from it: the warm run must
# produce a bit-identical CSV and answer >= 90% of its submissions
# without re-simulating (the "N simulated" figure of the engine stats
# line). (b) The same cold/warm pair for hiopt, whose warm run must print
# the same optimal configuration block, and for hibench's Algorithm 1
# studies R1 and PF, whose tables must match. A warm run that submitted
# nothing to the engine fails the check rather than passing it. (c)
# hiopt, hisim, hisweep and hibench -exp t1 each leave a non-empty CPU
# and heap profile.
CACHE_WARM_CHECK = awk '/^engine:/ { sub(",", "", $$2); sub(",", "", $$4); \
		if ($$2 + 0 == 0 || $$4 + 0 > 0.10 * $$2) { \
			printf "cache-smoke: warm run re-simulated %s of %s submissions (want > 0 submitted, <= 10%%)\n", $$4, $$2; bad = 1; exit 1; } \
		printf "cache-smoke: warm run re-simulated %s of %s submissions\n", $$4, $$2; ok = 1 } \
		END { if (!ok && !bad) { print "cache-smoke: no engine stats line in warm output"; exit 1 } }'
HIBENCH_ALG1_TABLES = sed -n '/^R1 /,/^\[r1 done/{/done in/!p;}; /^PF /,/^\[pf done/{/done in/!p;}'
cache-smoke:
	@rm -f /tmp/hiopt-cache-* /tmp/hiopt-prof-*
	$(GO) run ./cmd/hisweep -duration 5 -cachefile /tmp/hiopt-cache-smoke.bin -csv /tmp/hiopt-cache-cold.csv > /tmp/hiopt-cache-cold.out
	$(GO) run ./cmd/hisweep -duration 5 -cachefile /tmp/hiopt-cache-smoke.bin -csv /tmp/hiopt-cache-warm.csv > /tmp/hiopt-cache-warm.out
	cmp /tmp/hiopt-cache-cold.csv /tmp/hiopt-cache-warm.csv
	@$(CACHE_WARM_CHECK) /tmp/hiopt-cache-warm.out
	$(GO) run ./cmd/hiopt -duration 5 -cachefile /tmp/hiopt-cache-opt.bin > /tmp/hiopt-cache-opt-cold.out
	$(GO) run ./cmd/hiopt -duration 5 -cachefile /tmp/hiopt-cache-opt.bin > /tmp/hiopt-cache-opt-warm.out
	@sed -n '/^optimal configuration/,/^  lifetime/p' /tmp/hiopt-cache-opt-cold.out > /tmp/hiopt-cache-opt-cold.best
	@sed -n '/^optimal configuration/,/^  lifetime/p' /tmp/hiopt-cache-opt-warm.out > /tmp/hiopt-cache-opt-warm.best
	@test -s /tmp/hiopt-cache-opt-cold.best || { echo "cache-smoke: no optimal configuration in the cold hiopt output"; exit 1; }
	cmp /tmp/hiopt-cache-opt-cold.best /tmp/hiopt-cache-opt-warm.best
	@$(CACHE_WARM_CHECK) /tmp/hiopt-cache-opt-warm.out
	$(GO) run ./cmd/hibench -exp r1,pf -duration 5 -cachefile /tmp/hiopt-cache-bench.bin > /tmp/hiopt-cache-bench-cold.out
	$(GO) run ./cmd/hibench -exp r1,pf -duration 5 -cachefile /tmp/hiopt-cache-bench.bin > /tmp/hiopt-cache-bench-warm.out
	@$(HIBENCH_ALG1_TABLES) /tmp/hiopt-cache-bench-cold.out > /tmp/hiopt-cache-bench-cold.tables
	@$(HIBENCH_ALG1_TABLES) /tmp/hiopt-cache-bench-warm.out > /tmp/hiopt-cache-bench-warm.tables
	@test -s /tmp/hiopt-cache-bench-cold.tables || { echo "cache-smoke: no R1/PF tables in the cold hibench output"; exit 1; }
	cmp /tmp/hiopt-cache-bench-cold.tables /tmp/hiopt-cache-bench-warm.tables
	@$(CACHE_WARM_CHECK) /tmp/hiopt-cache-bench-warm.out
	$(GO) run ./cmd/hiopt -duration 5 -cpuprofile /tmp/hiopt-prof-hiopt.cpu -memprofile /tmp/hiopt-prof-hiopt.mem > /dev/null
	$(GO) run ./cmd/hisim -duration 5 -cpuprofile /tmp/hiopt-prof-hisim.cpu -memprofile /tmp/hiopt-prof-hisim.mem > /dev/null
	$(GO) run ./cmd/hisweep -duration 5 -cpuprofile /tmp/hiopt-prof-hisweep.cpu -memprofile /tmp/hiopt-prof-hisweep.mem > /dev/null
	$(GO) run ./cmd/hibench -exp t1 -cpuprofile /tmp/hiopt-prof-hibench.cpu -memprofile /tmp/hiopt-prof-hibench.mem > /dev/null
	@for c in hiopt hisim hisweep hibench; do for k in cpu mem; do \
		test -s /tmp/hiopt-prof-$$c.$$k || { echo "cache-smoke: $$c left no $$k profile"; exit 1; }; \
	done; done
	@echo "cache-smoke: warm restarts re-simulate <= 10% with identical output, every profile written"

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
# assert a byte-identical repeat response and a clean shutdown; and
# send identical first requests concurrently, which must run one solve
# between them (and a new one when its client goes away). All under the
# race detector (DESIGN.md §16).
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestCancelMidStream|TestConcurrentFirstRequestsSolveOnce|TestCancelledLeaderWaiterSolves' -v ./internal/serve/

# The fault-family gate: every caller of the engine's family call, in
# both modes. hisim evaluates one configuration against its 1-node-failure
# family exhaustively and replication-gated; hiopt's robust stage seals
# families wave by wave and must report the pinned run and rejection
# counts; the gated hisweep -robust CSV must match the
# checked-in golden file byte for byte. A few seconds in all.
robust-smoke:
	$(GO) run ./cmd/hisim -locs 0,1,3,6 -routing star -mac tdma -tx 0 -duration 20 -faults knode=1
	$(GO) run ./cmd/hisim -locs 0,1,3,6 -routing star -mac tdma -tx 0 -duration 20 -faults knode=1 -runs 4 -adaptive
	@# No design survives k=1 at the default floor, so hiopt exits 2; the
	@# gate is its report: 48 candidates in 55 runs, 7 rejected by the screen.
	$(GO) run ./cmd/hiopt -robust -kfail 1 -duration 10 -maxiter 3 -adaptive > /tmp/hiopt-robust-smoke.out || true
	grep -q '^evaluations:  48 configurations (55 simulator runs)$$' /tmp/hiopt-robust-smoke.out
	grep -q '7 nominally feasible candidates rejected by the fault screen$$' /tmp/hiopt-robust-smoke.out
	@rm -f /tmp/hiopt-robust-smoke.csv
	$(GO) run ./cmd/hisweep -duration 5 -robust -kfail 1 -adaptive -robustcsv /tmp/hiopt-robust-smoke.csv > /dev/null
	cmp /tmp/hiopt-robust-smoke.csv internal/experiments/testdata/rb_smoke_adaptive.csv
	@echo "robust-smoke: every family caller ran in both modes, gated RB CSV matches golden"

# The warm-started MILP kernel gate: the warm-vs-cold equivalence property
# tests on BOTH kernels (randomized bound/cut mutations in internal/lp,
# pool enumeration across pruning cuts in internal/milp), the presolve
# pool-preservation property, the parallel-dive determinism tests under
# the race detector, plus the paper-chain pivot-budget check in
# internal/core.
milp-smoke:
	$(GO) test -race -count=1 ./internal/lp/ ./internal/lp/presolve/ ./internal/milp/
	$(GO) test -race -count=1 -run 'TestParallelPool' -v ./internal/milp/
	$(GO) test -count=1 -run 'TestPaperChainWarmMatchesCold|TestWarmPoolDeepChainComplete|TestRunWarmMatchesColdChain|TestPaperChainKernelModes' -v ./internal/core/
