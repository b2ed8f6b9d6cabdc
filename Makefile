# Development targets. CI (.github/workflows/ci.yml) runs build, vet,
# staticcheck, ttlint, govulncheck, test, race, perfbench-check, and a short
# fuzz pass on every push.

GO ?= go

.PHONY: build test race vet lint fuzz-short golden bench-json bench-smoke bench-diff perfbench-check serve-smoke certify-smoke route-smoke approx-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# ttlint is this repo's own analyzer suite (cmd/ttlint, docs/ANALYSIS.md):
# flushcheck, ctxflow, certorder, panicsafe. It builds from the
# tree, so the target works offline. staticcheck and govulncheck are not
# vendored; each degrades to a notice when absent so offline checkouts
# still make (CI installs and runs them).
lint: vet
	$(GO) run ./cmd/ttlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

fuzz-short:
	$(GO) test ./internal/bvm/ -fuzz FuzzParseProgramRoundTrip -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzKernelCell$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzSolveAgreement$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzTreatmentOnly$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzSolveBatch$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz 'FuzzSetTable$$' -fuzztime 30s
	$(GO) test ./internal/instio/ -run '^$$' -fuzz 'FuzzRead$$' -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz 'FuzzSolveResponseAppend$$' -fuzztime 30s

# Regenerate the bvmcheck golden reports after an intentional format change.
golden:
	$(GO) test ./internal/bvmcheck/ -run TestGoldenSeededDefects -update

# Simulator-throughput benchmark suite, rendered to JSON. The committed
# BENCH_bvm.json holds the pre-kernel scalar baseline that the route-kernel
# speedups in EXPERIMENTS.md are measured against; rerun this target to
# re-baseline after an intentional performance change.
BENCH_PATTERN = BenchmarkExecPerRoute|BenchmarkExecActivation|BenchmarkExecStriped|BenchmarkApply3|BenchmarkGather|BenchmarkE3CycleID|BenchmarkE13BVMTT|BenchmarkA2WavefrontBVM|BenchmarkCertifyOverhead|BenchmarkSolveDP|BenchmarkSolveBatch|BenchmarkSolveReuse|BenchmarkRouteStep|BenchmarkRouteBatch|BenchmarkGreedySolve|BenchmarkBranchAndBound
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 200ms ./internal/bvm ./internal/bitvec ./internal/policy . \
		| $(GO) run ./cmd/benchjson > BENCH_bvm.json

# One-iteration benchmark smoke: exercises every route kernel, Apply3 fast
# path, striped Exec, the single and batched DP sweeps, the certification
# pipeline, the greedy, branch-and-bound and lookahead heuristics, the
# instance decoder and the in-process cache-hit handler under
# the bench harness so a silent fallback to the scalar path (or a kernel
# panic on any geometry, or a certifier regression) fails CI fast.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecPerRoute|BenchmarkExecStriped|BenchmarkApply3|BenchmarkE3CycleID|BenchmarkCertifyOverhead|BenchmarkSolveDP|BenchmarkSolveBatch|BenchmarkRouteStep|BenchmarkGreedySolve|BenchmarkBranchAndBound|BenchmarkApproxOversized|BenchmarkE17Lookahead' -benchtime 1x ./internal/bvm ./internal/bitvec ./internal/policy .
	$(GO) test -run '^$$' -bench 'BenchmarkReadInstance|BenchmarkSolveHit|BenchmarkSolveParallelK16' -benchtime 1x ./internal/instio ./internal/serve ./internal/core

# Regression gate against the committed baseline: rerun the suite, render it
# to JSON, and diff against BENCH_bvm.json. The threshold is generous (CI
# hardware differs run to run); it exists to catch order-of-magnitude
# regressions — a kernel silently degraded to scalar, a pooled table
# reallocated per call — not single-digit noise.
BENCH_DIFF_THRESHOLD ?= 300
bench-diff:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 200ms ./internal/bvm ./internal/bitvec ./internal/policy . \
		| $(GO) run ./cmd/benchjson > BENCH_new.json
	$(GO) run ./cmd/benchjson -diff BENCH_bvm.json BENCH_new.json -threshold $(BENCH_DIFF_THRESHOLD)

# The serving benchmark (perfbench/, see BENCHMARK.json) is its own module
# with a replace directive onto this one, so the root `go test ./...` never
# builds it and a core API change could break the benchmark unnoticed. Vet
# and test it in place, offline, with the installed toolchain.
PERFBENCH_ENV = GOWORK=off GOPROXY=off GOTOOLCHAIN=local
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./...
	cd perfbench && $(PERFBENCH_ENV) $(GO) test ./...

# End-to-end smoke of the solver service: boots ttserve on a random port
# through its real run loop, then drives a solve, a cache hit, an oversized
# 422 reject, and a graceful shutdown (see cmd/ttserve/main_test.go).
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' -v ./cmd/ttserve

# Live-fire certification drill: boots the real ttserve binary with
# -certify=fast while a chaos hook corrupts the exact path's first answer,
# then verifies zero wrong answers escape: that reply is a 500 naming the
# refusal and is not cached, the re-ask is a fresh 200 with the reference
# cost, the next ask is a cached hit with that cost, and certify_fail >= 1
# (see cmd/ttserve/certify_smoke_test.go and
# docs/RESILIENCE.md). The BVM hardware-fault kernels are drilled in
# internal/bvmtt/abft_test.go.
certify-smoke:
	$(GO) test -race -count=1 -run 'TestCertifySmoke' -v ./cmd/ttserve

# Graceful-degradation smoke: boots the real ttserve binary with a tiny
# exact K-cap, then verifies an over-budget instance is a structured 422
# naming the exceeded budget with approx=off, a 200 carrying a certified
# optimality gap with the approx knob on, and that the exact path's response
# bytes are untouched by the approx plane (see
# cmd/ttserve/approx_smoke_test.go and docs/RESILIENCE.md).
approx-smoke:
	$(GO) test -race -count=1 -run 'TestApproxSmoke' -v ./cmd/ttserve

# Route-plane smoke: boots the real ttserve binary, publishes a policy from
# a real certified solve over HTTP, then walks 10k stateless sessions to
# completion through /v1/route/batch, asserting zero sessions end on a leaf
# that does not treat their object (see cmd/ttserve/route_smoke_test.go and
# docs/SERVING.md).
route-smoke:
	$(GO) test -race -count=1 -run 'TestRouteSmoke' -v ./cmd/ttserve
