# Local mirror of .github/workflows/ci.yml: `make ci` runs the exact gate
# contributors are held to on push/PR.

GO ?= go

.PHONY: ci build vet fmt lint test race smoke check bench bench-gate clean \
	transgraph transgraph-check mcheck mcheck-smoke mcheck-baseline \
	mutants crosscheck \
	trace-smoke trace-overhead metrics-smoke fuzz fuzz-mutants corpus \
	flow flow-check flow-mutants indep indep-check scale-smoke examples-smoke \
	fuzz-smoke bench-smoke

ci: build vet fmt lint test race smoke examples-smoke check transgraph-check \
	flow-check indep-check flow-mutants mcheck-smoke mutants trace-smoke \
	metrics-smoke fuzz fuzz-mutants scale-smoke fuzz-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project analyzers (cmd/spandex-lint): determinism, protostate, mutafter,
# poolret, annref.
lint:
	$(GO) run ./cmd/spandex-lint ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

# FastParams-sized race gate: -short skips the full-size figure sweeps but
# keeps the parallel sweep runner tests, which are the point.
race:
	$(GO) test -race -short ./...

# Full evaluation path: every (workload, config) cell validated against
# its oracle, then sampled cells re-checked for bit-identical results
# under contention.
smoke:
	$(GO) run ./cmd/spandex-bench -headline -parallel 4 -validate
	$(GO) run ./cmd/spandex-bench -verify-determinism -parallel 4

# The protocol-trace example's Figure 1 message walk must match its golden
# output byte for byte (regenerate the golden only for a reviewed change).
examples-smoke:
	$(GO) run ./examples/protocoltrace | diff -u testdata/protocoltrace.golden -

# Invariant-checked smoke: litmus plus one headline workload per figure
# under -check (per-transition SWMR/disjointness audit on every LLC state
# change); any violation exits non-zero.
check:
	$(GO) run ./cmd/spandex-sim -config SDD -workload litmus -check
	$(GO) run ./cmd/spandex-sim -config SMD -workload litmus -check
	$(GO) run ./cmd/spandex-sim -config SDD -workload pr -check

bench:
	$(GO) test -bench=. -benchmem ./...

# Layer microbenchmarks, one iteration each so they keep compiling and
# running: machine construction per Table V configuration, and the
# conformance oracle on both fuzz geometries.
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(NewSystem|CheckCase)$$' -benchtime 1x . ./internal/conform

# Perf-regression gate (the CI bench-gate job): a paired A/B of the
# single-worker headline sweep at HEAD~1 vs the checked-out tree; fails on
# >10% regression in cells/sec or events/sec, or >10% growth in
# allocations per sweep. Also prints the tracing-disabled overhead line.
bench-gate:
	./scripts/bench_gate.sh

# Regenerate docs/transitions/ (static transition graphs, JSON + DOT).
transgraph:
	$(GO) run ./cmd/spandex-transgraph

# Freshness gate: the checked-in graphs must match the source byte-for-byte.
transgraph-check:
	$(GO) run ./cmd/spandex-transgraph -check

# Regenerate docs/msgflow/ (whole-system message-flow graph, JSON + DOT)
# and run the three global checks: completeness (every emitted message
# handled at every reachable receiver state or proven unreachable),
# deadlock-freedom (no dependency cycle made entirely of deferrable hops),
# and stall-safety (every blocking wait has a progress supplier).
flow:
	$(GO) run ./cmd/spandex-flow

# Freshness gate: checked-in flow graph must match the source, and the
# three checks must report zero violations.
flow-check:
	$(GO) run ./cmd/spandex-flow -check

# Regenerate the derived independence facts the model checker's
# partial-order reduction consumes (docs/indep + internal/mcheck/
# indep_tables.go).
indep:
	$(GO) run ./cmd/spandex-indep

# Freshness gate: a protocol change that moves the derived guard /
# settled-local / memSoleClient facts fails CI until the artifacts — and
# the reduction's soundness assumptions — are regenerated and re-reviewed.
indep-check:
	$(GO) run ./cmd/spandex-indep -check

# Static mutation detection: each seeded protocol bug, mirrored on the
# flow graph, must surface as at least one violation.
flow-mutants:
	$(GO) run ./cmd/spandex-flow -mutate dropinvack
	$(GO) run ./cmd/spandex-flow -mutate skiprvko

# Exhaustive model check: every CPU×GPU protocol pairing, every scenario,
# all message interleavings up to the state budget.
mcheck:
	$(GO) run ./cmd/spandex-mcheck

# CI-budgeted model check (~15 s): every pairing × scenario under the
# full reduction, gated against the checked-in state/runtime baseline,
# then the static-vs-dynamic coverage cross-check on what the runs
# observed.
mcheck-smoke:
	$(GO) run ./cmd/spandex-mcheck -coverage-out /tmp/mcheck-cov.json \
		-json /tmp/mcheck-stats.json -baseline docs/mcheck/baseline.json
	$(GO) run ./cmd/spandex-transgraph -diff /tmp/mcheck-cov.json

# Refresh the checked-in mcheck state/runtime baseline (docs/mcheck/).
# Run after a reviewed protocol or scenario change trips the gate.
mcheck-baseline:
	$(GO) run ./cmd/spandex-mcheck -json docs/mcheck/baseline.json

# Observability smoke: export a Perfetto/Chrome timeline from a traced
# run, re-validate the file (JSON loads, every async slice closed, ends
# after begins), and render a latency-attribution summary.
trace-smoke:
	$(GO) run ./cmd/spandex-trace -mode export -workload indirection -config SDD -o /tmp/spandex-trace.json
	$(GO) run ./cmd/spandex-trace -mode validate -in /tmp/spandex-trace.json
	$(GO) run ./cmd/spandex-trace -mode summarize -workload indirection -config SDD

# Report-only: what enabling tracing and metrics costs one headline cell.
# The tracing-disabled overhead vs the parent commit (< 2% target) is the
# overhead line of `make bench-gate`.
trace-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkRun(Tracing|Metrics)' -benchtime 3x . || true

# Metrics-engine smoke: run a cell with every metrics knob on, render the
# summary and heatmap, export the JSONL dump, re-validate it, and check
# two runs against each other with the summary differ (must report
# bit-identical measurements).
metrics-smoke:
	$(GO) run ./cmd/spandex-metrics -workload indirection -config SDD
	$(GO) run ./cmd/spandex-metrics -mode heatmap -workload indirection -config SDD
	$(GO) run ./cmd/spandex-metrics -mode export -format jsonl -workload indirection -config SDD -o /tmp/spandex-metrics.jsonl
	$(GO) run ./cmd/spandex-metrics -mode validate -in /tmp/spandex-metrics.jsonl
	rm -f /tmp/spandex-summary.jsonl
	$(GO) run ./cmd/spandex-trace -mode summarize -workload indirection -config SDD -summary-out /tmp/spandex-summary.jsonl
	$(GO) run ./cmd/spandex-trace -mode summarize -workload indirection -config SDD -diff /tmp/spandex-summary.jsonl | grep -q "bit-identical"

# Scalability smoke: the N-device/banked-LLC/mesh test surface (64-device
# serial-vs-parallel determinism, legacy 9x6 fingerprint pins, per-bank
# determinism, topology timing-only), then a validated scalemix sweep of
# one Spandex config across the 8..64-device ScaleParams points.
scale-smoke:
	$(GO) test -run 'TestScale|TestLegacyFingerprintsPinned|TestBankedDeterminism|TestTopologyChangesTimingOnly' .
	$(GO) run ./cmd/spandex-bench -scale -scale-configs SDD -validate

# Mutation detection: re-arm two seeded protocol bugs (drop invalidation
# ack, skip RvkO forward) behind the spandexmut build tag and require the
# model checker to catch each with a concrete interleaving trace.
mutants:
	$(GO) test -tags spandexmut ./internal/mcheck -run TestMutation

# Differential conformance fuzzing (CI-budgeted): a fixed seed range of
# random DRF programs, each run on all six configurations and required to
# behave observationally identically; a second pass shrinks every cache to
# a few lines (-pressure) so evictions and write-backs dominate — the
# regime that exposed the stale-RspRvkO, MPutM-window, and Inv-overtaking-
# grant races. Every (state, message) pair either pass observed is then
# cross-checked against the static transition graph.
fuzz:
	$(GO) run ./cmd/spandex-fuzz -seeds 0:2000 -coverage-out /tmp/fuzz-cov.json
	$(GO) run ./cmd/spandex-fuzz -seeds 0:500 -pressure -coverage-out /tmp/fuzz-pressure-cov.json
	$(GO) run ./cmd/spandex-fuzz -seeds 0:500 -banks 2 -pressure -coverage-out /tmp/fuzz-banked-cov.json
	$(GO) run ./cmd/spandex-transgraph -diff /tmp/fuzz-cov.json,/tmp/fuzz-pressure-cov.json,/tmp/fuzz-banked-cov.json

# Fuzzer mutation detection: with each seeded protocol bug armed, the
# fuzzer must find, shrink, and deterministically replay a failing case
# within the seed budget (also asserted as go tests for CI visibility).
fuzz-mutants:
	$(GO) run -tags spandexmut ./cmd/spandex-fuzz -mutate dropinvack -seeds 0:500 -out /tmp/conform-mutants
	$(GO) run -tags spandexmut ./cmd/spandex-fuzz -mutate skiprvko -seeds 0:500 -out /tmp/conform-mutants
	$(GO) test -tags spandexmut ./internal/conform -run TestMutant

# Native-fuzz smoke of the public constructor: 30 s of random device
# lists, geometries, topologies and queue sizes. Whatever Validate accepts
# must build and run litmus to completion with its oracle green.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzNewSystemParams$$' -fuzztime 30s .

# Regenerate the checked-in litmus corpus (testdata/conform/) from
# internal/conform/corpus.go.
corpus:
	$(GO) run ./cmd/spandex-fuzz -write-corpus testdata/conform

# Full cross-check: headline sweep coverage + mcheck coverage vs the
# statically extracted LLC graph.
crosscheck:
	$(GO) run ./cmd/spandex-bench -headline -parallel 4 -coverage-out /tmp/sweep-cov.json
	$(GO) run ./cmd/spandex-mcheck -coverage-out /tmp/mcheck-cov.json
	$(GO) run ./cmd/spandex-transgraph -diff /tmp/sweep-cov.json,/tmp/mcheck-cov.json

clean:
	$(GO) clean ./...
