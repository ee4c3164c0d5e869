# Standard entry points. `make check` is the full gate: build, vet, and
# the test suite under the race detector (the control plane's registry
# and solver are exercised concurrently over real HTTP).

GO ?= go

.PHONY: all build vet test race e2ebench-test bench bench-fleet bench-guard benchall chaos fleet-chaos drift-chaos fleet-sim fleet-sim-race fuzz check fmt

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (e2ebench/) is a module of its own, so the
# root `go test ./...` never builds it; vet and test it here so an API
# change breaks in CI rather than at benchmark time.
e2ebench-test:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# Solver-path benchmarks (roofline search/evaluator + control-plane
# serve path), written to BENCH_solver.json so CI tracks the perf
# trajectory PR-over-PR. The raw `go test -bench` stream still prints
# (via stderr). `make benchall` is the full unfiltered sweep.
bench:
	$(GO) test -bench 'BenchmarkSolve|BenchmarkEvaluate|BenchmarkEvaluator|BenchmarkAllocate' \
		-benchmem -run '^$$' ./internal/roofline/ ./internal/ctrlplane/ \
		| $(GO) run ./cmd/benchjson > BENCH_solver.json

# Placement-throughput benchmarks (decisions/sec against 100- and
# 1000-machine fleet snapshots), written to BENCH_fleet.json so CI
# tracks fleet-scale scheduling latency the same way BENCH_solver.json
# tracks the single-machine solver.
bench-fleet:
	$(GO) test -bench 'BenchmarkPlacement' -benchmem -run '^$$' ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson > BENCH_fleet.json

# Perf-regression gate: re-measure both benchmark suites and compare
# against the JSON baselines committed at HEAD. Fails on any tracked
# benchmark regressing more than 25% in ns/op or allocs/op (a
# zero-alloc baseline growing any allocations fails outright), or
# going missing from the fresh run (see cmd/benchdiff). Compares the working-tree artifacts, so
# run after `make bench bench-fleet` has refreshed them (CI does exactly
# that; `make bench bench-fleet bench-guard` locally).
bench-guard:
	git show HEAD:BENCH_solver.json > .bench-baseline-solver.json
	git show HEAD:BENCH_fleet.json > .bench-baseline-fleet.json
	$(GO) run ./cmd/benchdiff -baseline .bench-baseline-solver.json -fresh BENCH_solver.json
	$(GO) run ./cmd/benchdiff -baseline .bench-baseline-fleet.json -fresh BENCH_fleet.json
	rm -f .bench-baseline-solver.json .bench-baseline-fleet.json

benchall:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Fault-tolerance suite: kill/restart a real daemon mid-workload under
# injected transport faults, clock-skewed TTL expiry, server-side fault
# storms (see internal/ctrlplane/chaos_test.go), and the HA scenario —
# leader killed mid-heartbeat-storm, promotion within the lease bound
# (see internal/ctrlplane/replica/replica_test.go).
chaos:
	$(GO) test -race -count 1 -run 'TestChaos' -v ./internal/ctrlplane/ ./internal/ctrlplane/replica/

# Fleet-level chaos: a member machine is partitioned off the network,
# the rebalancer re-homes its apps within the per-round move bound, and
# after the partition heals the revived member's duplicate
# registrations are cleaned up and load re-spreads (see
# internal/fleet/chaos_test.go).
fleet-chaos:
	$(GO) test -race -count 1 -run 'TestChaosFleet' -v ./internal/fleet/

# Adaptive-loop chaos: a mis-declared app is re-fit online, the leader
# is killed mid-recalibration, and the journaled fitted model must
# survive failover — the promoted follower keeps serving the corrected
# allocation and re-confirms the drift when telemetry resumes (see
# internal/ctrlplane/replica/drift_chaos_test.go).
drift-chaos:
	$(GO) test -race -count 1 -run 'TestChaosDrift' -v ./internal/ctrlplane/replica/

# Trace-driven fleet stress harness: replay the checked-in scenario
# corpus (diurnal wave, flash crowd, autoscale churn, mis-declared
# drift with a mid-scenario leader kill, rebalance flapping) against
# live in-process coopd members and check the stability invariants —
# exactly-once, bounded-churn, no-oscillation, convergence — after
# every round. Writes the machine-readable verdicts to
# fleet-sim-verdicts.json (see internal/fleetsim and cmd/fleetsim).
fleet-sim:
	$(GO) run ./cmd/fleetsim -out fleet-sim-verdicts.json

# Race-detector smoke over a three-scenario subset: diurnal (the
# densest steady-state churn — placer, rebalancer, and telemetry all
# active every round), correlated_failure (the mass-death path: storm
# triage, quarantine bookkeeping, and urgent evacuation hammering the
# inventory concurrently with polls), and priority_inversion (the
# preemption pass: class-ranked triage and victim planning touching
# the priority map concurrently with polls). The full corpus under
# -race is too slow for every push; these three cover the lock-heavy
# paths.
fleet-sim-race:
	$(GO) run -race ./cmd/fleetsim -run diurnal,correlated_failure,priority_inversion

# 30s coverage-guided smoke over the incremental-evaluator equivalence
# property; regressions in the fast path show up as counterexamples.
fuzz:
	$(GO) test -fuzz FuzzEvaluatorEquivalence -fuzztime 30s -run '^$$' ./internal/roofline/

check: build vet race

fmt:
	gofmt -l -w .
