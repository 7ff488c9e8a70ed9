GO ?= go

.PHONY: all build vet lint lint-fixtures test race test-leak bench bench-kernels bench-json bench-gate store-warm-gate perfbench-check fuzz serve smoke-serve metrics-smoke ci

all: build vet lint test

build:
	$(GO) build ./...

# go vet's copylocks pass is the guard against by-value lock copies.
vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/epoc-lint): the full
# 10-analyzer suite — float equality, global rand, import DAG,
# unchecked in-module errors, discarded contexts, unended spans,
# plus the dataflow analyzers (map-order determinism, lock-guarded
# fields, goroutine joins, hot-loop allocations). Exit codes: 0 clean,
# 1 findings, 2 load error. See DESIGN.md §8 and §13.
lint:
	$(GO) run ./cmd/epoc-lint ./...

# The lint framework's own tests: analyzer fixtures under
# internal/lint/testdata, CFG unit tests, the repo self-check, and the
# CLI exit-code contract.
lint-fixtures:
	$(GO) test -timeout 5m ./internal/lint/... ./cmd/epoc-lint/...

# An explicit -timeout so a cancellation/budget regression hangs the
# suite for at most 5 minutes instead of the Go default 10.
test:
	$(GO) test -timeout 5m ./...

race:
	$(GO) test -timeout 10m -race ./...

# The cancellation conformance and cache-coalescing suites, twice under
# the race detector: goroutine leaks and cache poisoning that survive a
# first pass show up as cross-run interference in the second.
test-leak:
	$(GO) test -timeout 10m -race -count=2 \
		-run 'Cancel|Canceled|Budget|Degrad|Leak|Cache' \
		./internal/core ./internal/synth ./internal/qoc ./internal/faultclock

# Full benchmark harness; re-runs the paper's experiments (slow).
bench:
	$(GO) test -bench=. -benchmem ./...

# Kernel-layer microbenchmarks (DESIGN.md §14): the unrolled 2×2/4×4/8×8
# matmul paths (the only sizes the pipeline forms) and exponentials against the naive and pre-kernel
# baselines, the cached GRAPE propagator loop and one full GRAPE ascent
# iteration (BenchmarkKernelGrapeIter, d2/d4/d8), the QSearch template
# gradient (the evaluator's adjoint sweep against a central difference
# of its objective), and the
# stage-1 rewrite loops (incremental Peephole and resuming spider
# fusion against their restart-from-scratch references), and the
# state-vector stride kernels against the bit-spreading reference, and
# a repeat compile on a warmed shared store at two store sizes (its
# ns/op should not grow with the store).
# -benchmem makes the zero-allocation claim visible in the output.
bench-kernels:
	$(GO) test -run='^$$' -bench='^BenchmarkKernel|^BenchmarkNaive|^BenchmarkPrePR|^BenchmarkTemplateGradient|^BenchmarkPeephole|^BenchmarkSimplify|^BenchmarkExtract|^BenchmarkApplyMatrix|^BenchmarkRepeatCompileWarmStore' \
		-benchmem ./internal/linalg/kerneltest ./internal/qoc ./internal/synth ./internal/optimize ./internal/zx ./internal/sim ./internal/core

# Machine-readable benchmark artifact: the small suite (Table 1
# circuits, estimate mode) as bench/BENCH_small.json. Deterministic
# metrics (latency, fidelity, counts) are byte-stable across machines;
# only compile_time_ns varies.
bench-json:
	$(GO) run ./cmd/epoc-bench -suite small -json bench

# Perf regression gate: re-run the small suite and compare against the
# committed seed baseline. epoc-bench -baseline prints the full baseline
# diff (so a failing run shows *what* moved, not just that something
# did) and gates it under report.BenchGatePolicy, the same -fail-on
# engine epoc-stats uses: latency, fidelity and every count at zero
# slack, compile time informational. Non-zero exit on any regression,
# or on a baseline from another suite or config. The grape suite (qaoa
# and qft, cold full-GRAPE mode, about 1 s) gates stage 5 the same way,
# including the duration-search probe and GRAPE iteration counts.
# Refresh the baselines with:
#   go run ./cmd/epoc-bench -suite small -json bench/baseline
#   go run ./cmd/epoc-bench -suite grape -json bench/baseline
bench-gate:
	rm -rf $(CURDIR)/.bench-gate
	gate=0; \
	$(GO) run ./cmd/epoc-bench -suite small -json $(CURDIR)/.bench-gate \
		-baseline bench/baseline/BENCH_small.json || gate=$$?; \
	$(GO) run ./cmd/epoc-bench -suite grape -json $(CURDIR)/.bench-gate \
		-baseline bench/baseline/BENCH_grape.json || gate=$$?; \
	exit $$gate

# Store-warm gate: run the small suite in full-GRAPE mode twice over
# one persistent store. Run 1 pays for GRAPE and populates the store;
# run 2 must serve every pulse from disk (qoc_runs = 0, near-zero QOC
# time) and is gated against the committed warm baseline. Refresh with:
#   rm -rf /tmp/epoc-store && \
#   go run ./cmd/epoc-bench -suite small -store /tmp/epoc-store && \
#   go run ./cmd/epoc-bench -suite small -store /tmp/epoc-store -json bench/baseline
store-warm-gate:
	rm -rf $(CURDIR)/.store-warm
	$(GO) run ./cmd/epoc-bench -suite small -store $(CURDIR)/.store-warm
	$(GO) run ./cmd/epoc-bench -suite small -store $(CURDIR)/.store-warm \
		-baseline bench/baseline/BENCH_small_warm.json

# Native Go fuzzing of the QASM parser, the store record codec, the
# linalg kernel layer, the Peephole rewriter and the state-vector
# kernels (bounded; CI runs the same targets on every push).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/qasm
	$(GO) test -run='^$$' -fuzz=FuzzStoreDecode -fuzztime=30s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzKernelMatmul -fuzztime=30s ./internal/linalg/kerneltest
	$(GO) test -run='^$$' -fuzz=FuzzKernelExpm -fuzztime=30s ./internal/linalg/kerneltest
	$(GO) test -run='^$$' -fuzz=FuzzPeephole -fuzztime=30s ./internal/optimize
	$(GO) test -run='^$$' -fuzz=FuzzApplyMatrix -fuzztime=30s ./internal/sim

# Run the compile service locally (see SERVING.md for the API).
serve:
	$(GO) run ./cmd/epoc-serve -addr localhost:8080

# End-to-end smoke test of the running daemon: cold + warm compile,
# event stream, observability endpoints, graceful SIGTERM drain.
smoke-serve:
	sh scripts/smoke_serve.sh

# Telemetry smoke test (DESIGN.md §15): full-mode compile against a
# live daemon, strict-parse the /metrics scrape (epoc-stats
# -promcheck) including stage histograms and store counters, check
# access-log ↔ trace-header correlation, and run the epoc-stats
# snapshot diff gate.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# perfbench is a nested module (its own go.mod), so ./... reaches
# neither its tests nor its vet; this target runs both against the
# checkout through its replace directive.
perfbench-check:
	GOWORK=off $(GO) -C perfbench vet ./... && GOWORK=off $(GO) -C perfbench test ./...

# The gates of .github/workflows/ci.yml: build, vet, the lint suite
# and its fixtures, the race and leak suites, perfbench's own vet and
# tests, the serve and telemetry smoke tests, and the bench and
# store-warm baseline gates. Only the bounded fuzz runs are left out;
# run them with make fuzz.
ci: build vet lint lint-fixtures race test-leak perfbench-check smoke-serve metrics-smoke bench-gate store-warm-gate
