# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short race lint lint-sarif lint-ignores \
	lint-prune lint-fix allocreport bench-all eval eval-quick \
	fuzz fuzz-trace fuzz-v2v-frame fuzz-v2v-chunk \
	fuzz-v2v-receiver fuzz-chankernel fuzz-serve-ctrl arm64-check maps serve soak clean

all: build test

build:
	go build ./...

test:
	go test ./...

test-short:
	go test -short ./...

# Race coverage is repo-wide; -short keeps the heavyweight eval scenarios
# out so the run stays in CI-friendly territory.
race:
	go test -race -short ./...

# Static analysis: go vet plus the fifteen domain-aware analyzers in
# cmd/rups-lint (see docs/STATIC_ANALYSIS.md). Accepted findings live in
# the committed lint-baseline.json, each entry carrying a "why"
# justification; anything not in the baseline fails the build.
lint:
	go vet ./...
	go run ./cmd/rups-lint -baseline lint-baseline.json ./...

# Platform-independent SYN arithmetic: the tree vets for arm64, and the
# arm64 code of the packages the SYN search computes with, and of the
# lattice noise and GSM field that sample its test fixtures, holds no fused
# multiply-add. Go may fuse x*y+z into one FMA on arm64 (the spec allows
# it; amd64 never does), which would round differently from amd64; every
# product feeding a sum there is rounded explicitly with float64(...). The
# listing is compiled with an empty build cache, since a cached package
# prints no assembly.
ARM64_FMA_PKGS = ./internal/core ./internal/stats ./internal/trajectory ./internal/noise ./internal/gsm

arm64-check:
	GOARCH=arm64 go vet ./...
	@cache=$$(mktemp -d); \
	GOCACHE=$$cache GOARCH=arm64 go build -gcflags=-S $(ARM64_FMA_PKGS) > $$cache/asm.txt 2>&1; rc=$$?; \
	if [ $$rc -ne 0 ] || ! grep -q STEXT $$cache/asm.txt; then \
		echo "arm64 assembly listing failed"; rm -rf $$cache; exit 1; fi; \
	if grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\s' $$cache/asm.txt; then \
		echo "fused multiply-add in the arm64 SYN arithmetic"; rm -rf $$cache; exit 1; fi; \
	rm -rf $$cache

# SARIF 2.1.0 report for CI annotation (same findings as `make lint`).
lint-sarif:
	go run ./cmd/rups-lint -baseline lint-baseline.json -json ./... > rups-lint.sarif

# Audit every lint:ignore suppression; fails if one lacks a justification.
lint-ignores:
	go run ./cmd/rups-lint -list-ignores ./...

# Baseline freshness: fail if a committed baseline entry no longer fires —
# the finding was fixed, so the stale suppression must be dropped
# (go run ./cmd/rups-lint -baseline lint-baseline.json -prune-baseline rewrite ./...).
lint-prune:
	go run ./cmd/rups-lint -baseline lint-baseline.json -prune-baseline check ./...

# Apply every suggested fix carried by surviving diagnostics: edits are
# spliced atomically and the result is gofmt-clean. Running it twice is a
# no-op (CI asserts this), because a fixed finding no longer fires.
lint-fix:
	go run ./cmd/rups-lint -baseline lint-baseline.json -fix ./...

# The interval-ranked allocation worklist: the hottest sites by loop
# multiplicity × interval-derived size, the input to the next perf PR.
allocreport:
	go run ./cmd/rups-lint -allocreport 7 ./...

# The full micro-benchmark suite (one benchmark per paper table/figure plus
# cost models): per-layer probes. End-to-end performance is perfbench/
# (bash perfbench/run.sh; see BENCHMARK.json).
bench-all:
	go test -run XXXNONE -bench=. -benchmem ./...

eval:
	go run ./cmd/rups-eval -csv results

eval-quick:
	go run ./cmd/rups-eval -quick

# All fuzzers always run, even when an earlier one finds a crasher; the
# exit status still reflects any failure. Seed corpus entries live in each
# package's testdata/fuzz/ directory. Every Fuzz* target in the tree has a
# fuzz-* target here (CI checks this); FUZZTIME sets each one's budget.
# -fuzzminimizetime keeps the budget on new inputs: at the default 60 s,
# minimizing FuzzReceiverOffer's large stream inputs ate whole runs.
FUZZTIME ?= 30s

fuzz:
	@rc=0; \
	$(MAKE) fuzz-trace || rc=1; \
	$(MAKE) fuzz-v2v-frame || rc=1; \
	$(MAKE) fuzz-v2v-chunk || rc=1; \
	$(MAKE) fuzz-v2v-receiver || rc=1; \
	$(MAKE) fuzz-chankernel || rc=1; \
	$(MAKE) fuzz-serve-ctrl || rc=1; \
	exit $$rc

fuzz-trace:
	go test -run '^FuzzReadFrom$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/trace/

fuzz-v2v-frame:
	go test -run '^FuzzParseFrame$$' -fuzz '^FuzzParseFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/v2v/

fuzz-v2v-chunk:
	go test -run '^FuzzDecodeChunk$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/trajectory/

fuzz-v2v-receiver:
	go test -run '^FuzzReceiverOffer$$' -fuzz '^FuzzReceiverOffer$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/v2v/

fuzz-chankernel:
	go test -run '^FuzzChanKernel$$' -fuzz '^FuzzChanKernel$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core/

fuzz-serve-ctrl:
	go test -run '^FuzzControlFrame$$' -fuzz '^FuzzControlFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/serve/

maps:
	go run ./cmd/rups-map -out docs/city.svg
	go run ./cmd/rups-map -scenario -out docs/scenario.svg

# The resolution service on its default port with the debug endpoint up
# (see docs/SERVICE.md); Ctrl-C drains gracefully.
serve:
	go run ./cmd/rups-serve -debug-addr 127.0.0.1:6060

# Two-phase service soak (scripts/soak.sh): overload + faults + mid-run
# SIGTERM must degrade explicitly (refusals, evictions, one drain); a
# clean restart must keep every failure counter at zero with the
# resolve-latency SLO unbreached. Artifacts land in soak-out/.
soak:
	bash scripts/soak.sh

clean:
	rm -f drive.rupt rups-lint.sarif
	rm -rf soak-out
