GO ?= go

.PHONY: check build vet fmt test race bench perf-gate scale-bench fuzz

check: fmt vet build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting (CI runs the same gate).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# The benchmark is a nested module that the root ./... skips, so its
# own tests run separately.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test .

# The harness's concurrency surface: the worker pool itself, the
# experiment generators that fan out over it (including the chaos tests,
# which run fault-plan sweeps at -parallel 8), the engine they drive,
# and the consistency lab (litmus suite + checker), whose determinism
# contract CI also exercises under the race detector.
race:
	$(GO) test -race ./internal/runner/ ./internal/experiments/ ./internal/sim/ ./internal/faults/ ./internal/consistency/ ./cmd/ncdsm-cluster/

# bench runs the Go micro/macro benchmarks, then refreshes the tracked
# perf baseline (engine churn, RMC round trip, faulted fig7 sweep) in
# BENCH_sim.json. Commit the refreshed file when a hot-path change moves
# the numbers on purpose.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) run ./cmd/ncdsm-perf -out BENCH_sim.json

# scale-bench sweeps GOMAXPROCS over the paper-scale sharded benchmark
# (16x16 mesh, 8 shards) and records events/sec at each worker width in
# BENCH_scale.json. Informational, not a CI gate: parallel speedup is a
# property of the host, unlike the deterministic results it produces.
scale-bench:
	$(GO) run ./cmd/ncdsm-perf -scale BENCH_scale.json

# perf-gate re-measures and fails on >20% ns/op regression (after
# calibration rescaling for host speed) or any allocs/op growth against
# the committed BENCH_sim.json. CI runs this as the perf-smoke job.
perf-gate:
	$(GO) run ./cmd/ncdsm-perf -check BENCH_sim.json

# Short fuzz passes over the parsers of untrusted input and the
# consistency lab's state machines: the trace reader, the HNC frame
# integrity check that the fault injector's corrupted frames must never
# slip past, and random litmus programs under every protocol with
# directory invariants held at every step. CI runs the same 10-second
# smokes.
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=10s -run='^$$' ./internal/trace
	$(GO) test -fuzz=FuzzFrameIntegrity -fuzztime=10s -run='^$$' ./internal/hnc
	$(GO) test -fuzz=FuzzLitmusProgram -fuzztime=10s -run='^$$' ./internal/consistency
