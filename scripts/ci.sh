#!/bin/sh
# CI gate: clean-tree guard, vet, build, full test suite, the race detector
# over the packages with concurrent hot paths (worker pool, FFT scratch
# sharing, kernel-parallel simulator, mask-parallel ILT step, candidate
# fan-out), and a short fuzz smoke on the GDS reader so hostile-input
# regressions surface before a long fuzz campaign would find them.
set -eux

cd "$(dirname "$0")/.."

# Generated files, gofmt drift, or test litter in the tree fail fast.
git diff --exit-code

go vet ./...
go build ./...
go test -timeout 300s -shuffle=on ./...
go test -timeout 600s -race ./internal/litho ./internal/fft ./internal/ilt ./internal/core ./internal/par ./internal/sampling ./internal/runx ./internal/faultinject ./internal/artifact ./internal/model ./internal/serve ./internal/factory
go test -run='^$' -fuzz='^FuzzReadGDS$' -fuzztime=10s ./internal/gds

# Spectral-engine gates: alloc-regression tests on the ILT hot path, a
# 100-iteration FFT benchmark smoke (both engines), and a deadline-bounded
# quick A/B bench writing outside the tree so the clean-tree guard stays
# meaningful on reruns.
go test -timeout 120s -run='ZeroAlloc|SteadyStateAllocs|HotPathZeroAlloc' ./internal/fft ./internal/litho ./internal/ilt ./internal/nn ./internal/tensor ./internal/par ./internal/model
go test -run='^$' -bench='^BenchmarkFFT' -benchtime=100x ./internal/fft

# Vector-kernel gates. go vet's asmdecl pass cross-checks every assembly
# function against its Go declaration (frame size, argument offsets); run it
# explicitly over the package carrying the .s files so the gate is visible
# even if the repo-wide vet above ever narrows. Then the spectral suites and
# their consumers run a second time with LDMO_FFT_ASM=off, so the pure-Go
# scalar reference — the only engine on non-amd64 hosts — cannot rot, the
# engine-equivalence fuzz seeds get a smoke run, and the zero-alloc contract
# is proven under both engines.
go vet ./internal/fft
# Cross-arch leg: every AVX kernel declared in asm_amd64.go needs its stub in
# asm_noasm.go, and only a non-amd64 build notices a missing one.
GOARCH=arm64 go vet ./internal/fft
GOARCH=arm64 go build ./...
LDMO_FFT_ASM=off go test -timeout 300s ./internal/fft ./internal/litho ./internal/ilt ./internal/core
LDMO_FFT_ASM=off go test -timeout 120s -run='ZeroAlloc|SteadyStateAllocs|HotPathZeroAlloc' ./internal/fft ./internal/litho ./internal/ilt
go test -run='^$' -fuzz='^FuzzVecEquivalence$' -fuzztime=10s ./internal/fft
tmpout="$(mktemp -d)"
trap 'rm -rf "$tmpout"' EXIT
go run ./cmd/ldmo-bench -exp fftbench -fast -deadline 120s -out "$tmpout"

# NN compute-core gates: the GEMM engine golden (bit-identical blocked vs
# naive training trajectory) and sharded PredictBatch over folded replicas
# already run under -race via ./internal/model above; here the quick
# naive-vs-blocked A/B bench proves the folded path stays zero-alloc and the
# blocked engine stays ahead.
go run ./cmd/ldmo-bench -exp nnbench -fast -deadline 120s -out "$tmpout"

# Pipeline gates: the bitwise serial==pipelined golden, the coalescer, and the
# mid-pipeline cancellation/fault-injection drains already run under -race via
# ./internal/core ./internal/par above, and the alloc line asserts the
# coalescing queue and shared prediction buffers add zero steady-state
# allocations; here the quick stage-at-a-time vs pipelined A/B bench
# cross-checks identity end to end and records the coalescing factor.
go run ./cmd/ldmo-bench -exp pipebench -fast -deadline 120s -out "$tmpout"

# Serving gates: the httptest endpoint smoke (submit -> poll -> result, 429
# shed, dedupe) and both crash drills — including a real SIGKILL'd daemon —
# run under -race via ./internal/serve above; the quick service bench drives
# a multi-client overload burst and records latency percentiles, throughput,
# and shed rate to BENCH_serve.json.
go run ./cmd/ldmo-bench -exp servebench -fast -deadline 120s -out "$tmpout"

# Factory gates: lease claiming, reclaim, hung-worker kill, poison quarantine,
# and both re-exec'd chaos drills (SIGKILL mid-build converging byte-identical
# to the serial reference) run under -race via ./internal/factory above; the
# quick bench repeats the chaos drill in-process, measures scaling, reclaim and
# resume cost, and fails if the chaos manifest diverges from the serial one.
go run ./cmd/ldmo-bench -exp factorybench -fast -deadline 180s -out "$tmpout"

# Warm-start gates. The packages that consume the LDMO_WARMSTART gate run a
# second time with it forced off, so the kill switch's bitwise-identical
# off-path (pinned by the core/ilt golden tests) cannot rot; the zero-alloc
# line proves warm inference stays allocation-free in steady state (the
# WarmMasksInto gate also runs inside the SteadyStateAllocs sweep above); and
# the quick warmbench smoke trains a small surrogate and cross-checks the
# off-gate end to end, writing BENCH_warmstart.json outside the tree.
LDMO_WARMSTART=off go test -timeout 300s ./internal/ilt ./internal/core ./internal/serve
go test -timeout 120s -run='WarmMasksIntoSteadyStateAllocs' ./internal/model
go run ./cmd/ldmo-bench -exp warmbench -fast -deadline 600s -out "$tmpout"
