# Development entry points. CI (.github/workflows/ci.yml) runs exactly these
# targets: lint, build, bench-build, test, race and fma-check in its test
# job, bench-serve, bench-fleet and bench-dse in bench-json, bench in
# bench-smoke. Its test job also fuzzes the /v1/infer parser for 15 s
# (FuzzInferPayload; its seed corpus runs under `make test`). A green
# `make lint build test race` locally means a green test job, short of what
# that fuzzing finds. The serving, fleet, DSE, chaos and trace contracts are
# go tests under `make test` (see README.md, "Where each contract is
# tested"), and so is the reachability audit (reach_test.go): an exported
# identifier under internal/ that no non-test code outside its package
# reaches, or an unexported declaration nothing references, fails it.

GO ?= go

.PHONY: all build bench-build test race lint fma-check bench bench-serve bench-fleet bench-dse chaos fmt

all: lint build test

build:
	$(GO) build ./...

# The benchmark spine (benchmark/) is a Go module of its own, so the root
# `go build ./...` and `go test ./...` never reach it; this proves it still
# builds and vets against internal/host and internal/serve as they are now
# (-o /dev/null: a bare build of its one main package would drop a binary
# into benchmark/), and runs its own tests: the manifest-vs-spec check and
# the oracle-checked LeNet smoke.
bench-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Every package under the race detector, fleet's chaos streams at full
# length included.
race:
	$(GO) test -race ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The bit-identity contract (the GEMM and window executors and cpuref against
# the interpreter) needs every float32 product rounded before it is
# accumulated.
# The Go spec guarantees that only at an explicit float32(...) conversion;
# arm64 contracts `acc += a*b` into one FMADDS even through a temporary, and
# amd64 has VFMADD* from GOAMD64=v3 on. Build the cpuref, sim and relay (BN
# folding, weight init) test binaries for arm64 and for amd64 at v3, with the
# compiler's and assembler's own listings (-S: `go tool objdump` cannot decode
# VEX instructions, so it would show no amd64 FMA), and fail on any fused
# multiply-add in those packages: library and test code (the tests' oracles
# must round too) and the hand-written AVX kernels, cpuref's GEMM tile and
# fringe kernel (gemm_amd64.s: gemm4x16, gemmEdge) and sim's lane-parallel
# window fold and write-back (window_amd64.s), which must stay VMULPS+VADDPS.
# Each of those must be in the amd64 listing too. The portable folds the
# contract rests on (the window's per-point fold and its four-point GEMV
# fold dot4, the write-back's scalar twin emitScalar, whose scaled value
# float32(v*scale) must round before a chain adds to it, cpuref's block
# twin gemmTwin, relay's foldBN) must appear in the listings, so a rename
# cannot take them out of the check.
fma-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for arch in arm64 amd64; do \
		for pkg in cpuref sim relay; do \
			GOARCH=$$arch GOAMD64=v3 $(GO) test -c -o "$$dir/$$pkg.test" \
				-gcflags="repro/internal/$$pkg=-S" -asmflags="repro/internal/$$pkg=-S" \
				./internal/$$pkg > "$$dir/$$pkg.$$arch.s" 2>&1 || { cat "$$dir/$$pkg.$$arch.s"; exit 1; }; \
		done; \
	done; \
	for arch in arm64 amd64; do \
		grep -q 'TEXT.*repro/internal/cpuref\.gemmTwin(SB)' "$$dir/cpuref.$$arch.s" || { echo "fma-check: gemmTwin not listed on $$arch"; exit 1; }; \
		for sym in '(\*windowLoop)\.fold' dot4 '(\*tileNest)\.emitScalar'; do \
			grep -q "TEXT.*repro/internal/sim\.$$sym(SB)" "$$dir/sim.$$arch.s" || { echo "fma-check: sim.$$sym not listed on $$arch"; exit 1; }; \
		done; \
	done; \
	grep -q 'TEXT.*repro/internal/relay\.foldBN(SB)' "$$dir/relay.arm64.s" || { echo "fma-check: foldBN not listed"; exit 1; }; \
	for sym in gemm4x16 gemmEdge; do \
		grep -q "gemm_amd64\.s:[0-9]*)[[:space:]]*TEXT[[:space:]]*repro/internal/cpuref\.$$sym(SB)" "$$dir/cpuref.amd64.s" || { echo "fma-check: $$sym not listed"; exit 1; }; \
	done; \
	for sym in foldLanes8 emitLanes8; do \
		grep -q "window_amd64\.s:[0-9]*)[[:space:]]*TEXT[[:space:]]*repro/internal/sim\.$$sym(SB)" "$$dir/sim.amd64.s" || { echo "fma-check: $$sym not listed"; exit 1; }; \
	done; \
	fused=$$(grep -hE '[[:space:]](FMADDS|FMSUBS|FNMADDS|FNMSUBS|VFN?M(ADD|SUB)[0-9A-Z]*)[[:space:]]' "$$dir"/*.s | \
		awk '{sub(/.*\//, "", $$3); sub(/\)$$/, "", $$3); print $$3, $$4}' | sort -u); \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add in repro/internal/{cpuref,sim,relay} (write acc += float32(a*b); VMULPS+VADDPS in assembly):"; \
		echo "$$fused"; exit 1; \
	fi; \
	echo "fma-check: no fused multiply-add in repro/internal/{cpuref,sim,relay} on arm64 or amd64 v3"

# Serial-vs-parallel explorer speedup: BenchmarkDSESerial (1 worker) vs
# BenchmarkDSEParallel (4 workers), both with the run's own compile cache, so
# the pair measures parallelism alone.
bench:
	$(GO) test -run=NONE -bench=BenchmarkDSE -benchtime=1x ./...

# Open-loop load benchmark for the continuous-batching server: the same QPS
# ramp over (batch-N, deadline-T) operating points including a batch-of-1
# baseline. Every figure is modeled on the virtual clock, so the JSON is
# byte-deterministic and CI diffs it against the checked-in copy.
bench-serve:
	$(GO) run ./cmd/fpgacnn bench-serve -o BENCH_serve.json

# Fleet benchmark: single board vs data-parallel replication vs pipeline
# sharding, plus a kill-mid-stream point. Fully modeled on the virtual clock,
# so BENCH_fleet.json is byte-deterministic and CI diffs it against the
# checked-in copy; bench-gates asserts the replication and shard speedup floors.
bench-fleet:
	$(GO) run ./cmd/fpgacnn bench-fleet -o BENCH_fleet.json

# Guided-vs-exhaustive DSE benchmark: guided search must find the exhaustive
# joint-space best on LeNet with >= 10x fewer full evaluations, and at least
# match the thesis's hand-pruned tier on MobileNet while covering its 96768-
# point joint space with >= 100x leverage. Every figure is a pure function of
# (seed, space) — wall time goes to stdout only — so BENCH_dse.json is
# byte-deterministic and CI diffs it against the checked-in copy; bench-gates
# asserts the ratios.
bench-dse:
	$(GO) run ./cmd/fpgacnn bench-dse -o BENCH_dse.json

# The fault-injection matrix alone, for a quick local check: the injector,
# the clrt fault probes, the batch engine's fault ledger, the serving
# ladder's rungs and ledger, drains, the fleet's kill-mid-stream failover,
# and the chaos and verify commands end to end (make race runs all of it
# under the race detector).
chaos:
	$(GO) test -run 'Fault|Injected|Deadlock|Drain|Ladder|Ledger|Chaos' ./...

fmt:
	gofmt -w .
