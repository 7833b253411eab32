GO ?= go

.PHONY: ci fmt vet build test race bench bench-conv bench-batch bench-exhaustive bench-graph bench-graph-batch bench-store fuzz-smoke staticcheck vuln svcbench-check serve-smoke

ci: fmt vet staticcheck vuln build test svcbench-check bench bench-conv bench-batch bench-exhaustive bench-graph bench-graph-batch bench-store fuzz-smoke serve-smoke

fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "$$out"; echo "gofmt: files need formatting"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomises test order so inter-test state dependencies
# cannot hide.
test:
	$(GO) test -shuffle=on ./...

# Race coverage for the worker-pool scenario engine, pooled scratch and
# the goroutine message-passing runtime.
race:
	$(GO) test -race -shuffle=on ./...

# svcbench is a separate module built against the library via a
# replace directive, so ./... never compiles it: vet and test it here so
# a change to a library symbol it uses fails CI instead of the
# benchmark run.
svcbench-check:
	cd svcbench && $(GO) vet ./... && $(GO) test ./...

# Short smoke of the hot-path microbenchmarks (fixed iteration count so
# it stays fast on slow runners). Full runs: go test -bench . -benchtime=2s
# BenchmarkCertifySpan (both spans of a 24×24 conv2d net's cut) takes
# ~0.3 s an op, hence its own short line.
bench:
	$(GO) test -run '^$$' -bench 'Forward|Faulted' -benchtime=100x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkCertifySpan' -benchtime=3x -benchmem ./internal/core

# Native-vs-lowered conv smoke (BENCH_4.json workload): keeps the native
# conv path honest — TestConvNativeSpeedSmoke FAILS if the native and
# lowered timings converge (i.e. the native path regressed to dense
# lowering); the benchmark run prints the current columns.
bench-conv:
	NEUROFAIL_BENCH_CONV=1 $(GO) test -run 'TestConvNativeSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkConv(Forward|FaultedForward)' -benchtime=20x -benchmem .

# Batched-vs-scalar engine smoke (BENCH_7.json workload): keeps the
# fused multi-lane path honest — TestBatchedSpeedSmoke FAILS if the
# batched sweep stops clearly beating the scalar one-at-a-time engine;
# the benchmark run prints the current scalar/batched columns.
bench-batch:
	NEUROFAIL_BENCH_BATCH=1 $(GO) test -run 'TestBatchedSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkBatchedSweep' -benchtime=5x -benchmem .

# Tree-vs-flat exhaustive search smoke (BENCH_8.json workload): keeps
# the tree-structured engine honest — TestExhaustiveSpeedSmoke FAILS if
# the prefix-sharing + pruning sweep stops clearly beating the flat
# enumeration, or if the two engines disagree on the worst error; the
# benchmark run prints the current exhaustive-search columns.
bench-exhaustive:
	NEUROFAIL_BENCH_EXHAUSTIVE=1 $(GO) test -run 'TestExhaustiveSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkExhaustiveSearch' -benchtime=5x -benchmem .

# Graph-native-vs-lowered smoke (BENCH_9.json workload): keeps the
# sparse-DAG CSR engine honest — TestGraphNativeSpeedSmoke FAILS if the
# native path stops clearly beating the lowered dense twin, or if the
# two engines disagree bitwise on the damaged outputs; the benchmark
# run prints the current columns.
bench-graph:
	NEUROFAIL_BENCH_GRAPH=1 $(GO) test -run 'TestGraphNativeSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkGraph(Forward|FaultedForward)' -benchtime=20x -benchmem .

# Batched-vs-scalar smoke on the sparse-DAG engine (BENCH_10.json
# workload): keeps the fused level-scheduled multi-lane path honest —
# TestGraphBatchSpeedSmoke FAILS if the batched DAG sweep stops clearly
# beating the scalar one-at-a-time engine (the shape of the lane-by-lane
# fallback it replaced), or if the two engines disagree bitwise on any
# lane; the benchmark run prints the current scalar/batched and
# flat/tree exhaustive columns.
bench-graph-batch:
	NEUROFAIL_BENCH_GRAPH_BATCH=1 $(GO) test -run 'TestGraphBatchSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkGraph(BatchedSweep|Exhaustive)' -benchtime=5x -benchmem .

# Store index smoke: Put, an unknown-ID Resolve and Models at 100 and
# 4,000 stored artifacts. No threshold — the columns show whether a
# per-request or per-write cost grows with the artifact count.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStore' -benchtime=20x -benchmem ./internal/store

# Short coverage-guided runs of every fuzz target, starting from the
# committed seed corpora (testdata/fuzz/ in each package). Any crasher
# or invariant violation fails the target; in normal `go test` runs the
# committed corpus entries already execute as plain unit cases.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzNetworkJSON$$' -fuzztime=10s ./internal/nn
	$(GO) test -fuzz='^FuzzParseModel$$' -fuzztime=10s ./internal/conv
	$(GO) test -fuzz='^FuzzGraphJSON$$' -fuzztime=10s ./internal/graph
	$(GO) test -fuzz='^FuzzOpenManifest$$' -fuzztime=10s ./internal/store

# Static analysis beyond vet. Skips with a notice when the binary is
# not on PATH (CI installs it; local runs without it stay usable).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# Known-vulnerability scan of the module graph and reachable calls.
# Same graceful local skip as staticcheck.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# End-to-end smoke of the query service: build the CLI, boot `neurofail
# serve` against a fresh store, hit /healthz and one /v1/bounds query,
# submit a long Monte Carlo job, and verify a clean SIGTERM shutdown
# with that job resident.
serve-smoke:
	$(GO) build -o /tmp/neurofail-smoke ./cmd/neurofail
	sh scripts/serve_smoke.sh /tmp/neurofail-smoke
