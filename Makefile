# Development entry points. CI (.github/workflows/ci.yml) runs exactly these
# targets, so a green `make lint build test race` locally means a green PR.

GO ?= go

.PHONY: all build bench-build test race lint fma-check bench bench-serve bench-fleet bench-dse chaos trace serve-smoke fleet-smoke dse-smoke fmt

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

# The concurrency-sensitive packages: the parallel design-space explorer, the
# sharded compile cache its workers share, the deployment builders it calls
# into, the runtime event queue, the metrics registry the retried images
# publish into, the simulator (shared buffer pool + execution-tier stats
# across batch workers), and the continuous-batching server (mutex-serialized
# engine + worker pool + drain). The fleet
# layer (health-monitored devices + failover requeue) runs with -short so its
# chaos streams stay tractable under the detector.
race:
	$(GO) test -race ./internal/dse/... ./internal/aoc/... ./internal/host/... ./internal/clrt/... ./internal/trace/... ./internal/sim/... ./internal/serve/...
	$(GO) test -race -short ./internal/fleet/...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The bit-identity contract (GEMM, vector microkernels and cpuref against the
# interpreter) needs every float32 product rounded before it is accumulated.
# The Go spec guarantees that only at an explicit float32(...) conversion;
# amd64 never fuses, but arm64 contracts `acc += a*b` into one FMADDS even
# through a temporary. Cross-compile the cpuref and sim test binaries for
# arm64 and fail on any fused multiply-add in either package, library or test
# code (the tests' oracles must round too).
fma-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for pkg in cpuref sim; do \
		GOARCH=arm64 $(GO) test -c -o "$$dir/$$pkg.test" ./internal/$$pkg || exit 1; \
		$(GO) tool objdump -s '^repro/internal/(cpuref|sim)\.' "$$dir/$$pkg.test" > "$$dir/$$pkg.s" || exit 1; \
	done; \
	grep -q 'TEXT repro/internal/cpuref\.gemmRows' "$$dir/cpuref.s" || { echo "fma-check: gemmRows not disassembled"; exit 1; }; \
	fused=$$(grep -hwE 'FMADDS|FMSUBS|FNMADDS|FNMSUBS' "$$dir"/*.s | awk '{print $$1, $$4}' | sort -u); \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add in repro/internal/{cpuref,sim} on arm64 (write acc += float32(a*b)):"; \
		echo "$$fused"; exit 1; \
	fi; \
	echo "fma-check: no fused multiply-add in repro/internal/{cpuref,sim} on arm64"

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

# Serve smoke: replay a modest fixed-QPS workload across two fault seeds and
# assert the drain zero-drop contract, the metrics ledger, and reference-
# matching answers on every degradation rung; then round-trip the real HTTP
# server including a drain with a request still queued.
serve-smoke:
	$(GO) run ./cmd/fpgacnn serve-smoke

# Fleet smoke: stream a fixed-QPS lenet5 workload into a two-board fleet and
# kill one board mid-stream, across two load seeds. The fleet CLI itself
# asserts the contracts — zero dropped requests, a well-formed failover
# ledger, and bit-identical answers against the cpuref reference — so any
# violation is a non-zero exit.
fleet-smoke:
	for seed in 1 2; do \
		$(GO) run ./cmd/fpgacnn fleet -boards s10sx:2 -seed $$seed \
			-kill-board s10sx-0 -kill-at-us 30000 || exit 1; \
	done

# Fleet benchmark: single board vs data-parallel replication vs pipeline
# sharding, plus a kill-mid-stream point. Fully modeled on the virtual clock,
# so BENCH_fleet.json is byte-deterministic and CI diffs it against the
# checked-in copy; bench-gates asserts the replication speedup floor.
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

# DSE smoke: the guided explorer's determinism contract end to end. Two seeds,
# each run at 1 and 8 workers with the result JSON byte-compared (fixed seed +
# any worker count -> byte-identical result), then a cross-board transfer
# round trip (serialize A10's model + top-K, warm-start S10SX from it).
dse-smoke:
	for seed in 1 2; do \
		$(GO) run ./cmd/fpgacnn dse -dse-mode=guided -net mobilenetv1 -board S10SX \
			-dse-max 32 -dse-seed $$seed -dse-workers 1 -json /tmp/dse_$${seed}_w1.json || exit 1; \
		$(GO) run ./cmd/fpgacnn dse -dse-mode=guided -net mobilenetv1 -board S10SX \
			-dse-max 32 -dse-seed $$seed -dse-workers 8 -json /tmp/dse_$${seed}_w8.json || exit 1; \
		cmp /tmp/dse_$${seed}_w1.json /tmp/dse_$${seed}_w8.json || exit 1; \
	done
	$(GO) run ./cmd/fpgacnn dse -dse-mode=guided -net mobilenetv1 -board A10 \
		-dse-max 32 -transfer-out /tmp/dse_a10_state.json
	$(GO) run ./cmd/fpgacnn dse -dse-mode=guided -net mobilenetv1 -board S10SX \
		-dse-max 16 -transfer-in /tmp/dse_a10_state.json

# Chaos smoke: the fault-injection matrix (the clrt fault probes, the batch
# engine's fault ledger, and the serving ladder's rung and fault-ledger tests,
# which sweep seeds 1-3 internally) under the race detector, the static
# channel verifier over the example networks plus output verification of
# every Table 6.4 bitstream on the vector tier (channels elided into buffers;
# the interpreter cross-check of every variant is
# TestElidedSessionMatchesInterpOracle), and the chaos CLI across three seeds:
# LeNet-5 and MobileNetV1 requests through the serving ladder, every answer
# checked against the CPU reference.
chaos:
	$(GO) test -race ./internal/fault/...
	$(GO) test -race -run 'Fault|Injected|Deadlock|Drain|Ladder' \
		./internal/clrt/... ./internal/sim/... ./internal/host/... ./internal/serve/...
	$(GO) run ./cmd/fpgacnn verify
	for seed in 1 2 3; do \
		$(GO) run ./cmd/fpgacnn chaos -fault-rate 0.1 -fault-seed $$seed -images 3 || exit 1; \
	done

# Trace smoke: export Chrome traces of a timed run for both networks twice
# and require the repeats to be byte-identical (the exporter's determinism
# contract).
trace:
	$(GO) run ./cmd/fpgacnn run -net lenet5 -images 4 -trace /tmp/lenet5.trace.json
	$(GO) run ./cmd/fpgacnn run -net lenet5 -images 4 -trace /tmp/lenet5.trace2.json
	cmp /tmp/lenet5.trace.json /tmp/lenet5.trace2.json
	$(GO) run ./cmd/fpgacnn run -net mobilenetv1 -images 2 -trace /tmp/mobilenet.trace.json
	$(GO) run ./cmd/fpgacnn run -net mobilenetv1 -images 2 -trace /tmp/mobilenet.trace2.json
	cmp /tmp/mobilenet.trace.json /tmp/mobilenet.trace2.json

fmt:
	gofmt -w .
